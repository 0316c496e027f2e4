/**
 * @file
 * Minimal ordered JSON value: what the campaign report and threshold
 * files need, nothing more. Objects keep insertion order so serialized
 * reports are stable and diffable; numbers round-trip through
 * max_digits10 so a parsed report compares bit-for-bit against the
 * values that produced it. Parsing returns structured errors through
 * resilience::Expected instead of throwing.
 */

#ifndef MSIM_UTIL_JSON_HH
#define MSIM_UTIL_JSON_HH

#include <string>
#include <utility>
#include <vector>

#include "resilience/expected.hh"

namespace msim::util
{

class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Json() = default;
    Json(bool b) : kind_(Kind::Bool), bool_(b) {}
    Json(double d) : kind_(Kind::Number), number_(d) {}
    Json(int i) : kind_(Kind::Number), number_(i) {}
    Json(std::size_t n)
        : kind_(Kind::Number), number_(static_cast<double>(n))
    {}
    Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
    Json(const char *s) : kind_(Kind::String), string_(s) {}

    static Json
    object()
    {
        Json j;
        j.kind_ = Kind::Object;
        return j;
    }

    static Json
    array()
    {
        Json j;
        j.kind_ = Kind::Array;
        return j;
    }

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    bool asBool(bool fallback = false) const
    {
        return kind_ == Kind::Bool ? bool_ : fallback;
    }

    double asNumber(double fallback = 0.0) const
    {
        return kind_ == Kind::Number ? number_ : fallback;
    }

    const std::string &
    asString() const
    {
        static const std::string empty;
        return kind_ == Kind::String ? string_ : empty;
    }

    /** Object: set (or overwrite) @p key, preserving insertion order. */
    Json &set(const std::string &key, Json value);

    /** Object: the value at @p key, or nullptr. */
    const Json *find(const std::string &key) const;

    /** Object: nested lookup `a.b.c`, or nullptr. */
    const Json *findPath(const std::string &dottedPath) const;

    /**
     * Object: the count at @p key, a finite non-negative integer no
     * larger than 2^53 (beyond it a double skips integers). Anything
     * else, a missing key included, is a BadFormat error naming the
     * key: casting a negative, fractional or non-finite number to
     * std::size_t is undefined behaviour.
     */
    resilience::Expected<std::size_t>
    countAt(const std::string &key) const;

    /** Array: append. */
    Json &push(Json value);

    const std::vector<Json> &items() const { return items_; }
    const std::vector<std::pair<std::string, Json>> &
    members() const
    {
        return members_;
    }

    std::size_t
    size() const
    {
        return kind_ == Kind::Array ? items_.size() : members_.size();
    }

    /**
     * Serialize. @p indent 0 emits one compact line; otherwise a
     * pretty tree indented by @p indent spaces per level.
     */
    std::string dump(int indent = 2) const;

    static resilience::Expected<Json> parse(const std::string &text);

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Json> items_;
    std::vector<std::pair<std::string, Json>> members_;
};

} // namespace msim::util

#endif // MSIM_UTIL_JSON_HH
