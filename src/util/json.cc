#include "util/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace msim::util
{

namespace
{

void
appendNumber(std::string &out, double d)
{
    // Integers print without an exponent or trailing zeros; anything
    // else keeps max_digits10 so values round-trip bit-for-bit.
    if (d == static_cast<double>(static_cast<long long>(d)) &&
        std::abs(d) < 1e15) {
        out += std::to_string(static_cast<long long>(d));
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g",
                  std::numeric_limits<double>::max_digits10, d);
    out += buf;
}

struct Parser
{
    const char *p;
    const char *end;

    void
    skipWs()
    {
        while (p < end && std::isspace(static_cast<unsigned char>(*p)))
            ++p;
    }

    resilience::Error
    fail(const char *what) const
    {
        return resilience::errorf(resilience::Errc::BadFormat,
                                  "JSON: %s at byte %zd", what,
                                  static_cast<std::ptrdiff_t>(
                                      p - start));
    }

    const char *start;

    resilience::Expected<Json>
    parseValue(int depth)
    {
        if (depth > 64)
            return fail("nesting too deep");
        skipWs();
        if (p >= end)
            return fail("unexpected end of input");
        switch (*p) {
          case '{': return parseObject(depth);
          case '[': return parseArray(depth);
          case '"': {
            auto s = parseString();
            if (!s.ok())
                return s.error();
            return Json(std::move(*s));
          }
          case 't':
            if (end - p >= 4 && std::string(p, p + 4) == "true") {
                p += 4;
                return Json(true);
            }
            return fail("bad literal");
          case 'f':
            if (end - p >= 5 && std::string(p, p + 5) == "false") {
                p += 5;
                return Json(false);
            }
            return fail("bad literal");
          case 'n':
            if (end - p >= 4 && std::string(p, p + 4) == "null") {
                p += 4;
                return Json();
            }
            return fail("bad literal");
          default: return parseNumber();
        }
    }

    resilience::Expected<std::string>
    parseString()
    {
        ++p; // opening quote
        std::string out;
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return fail("unterminated escape");
                switch (*p) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'n': out += '\n'; break;
                  case 't': out += '\t'; break;
                  case 'r': out += '\r'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'u': {
                    if (end - p < 5)
                        return fail("short \\u escape");
                    const std::string hex(p + 1, p + 5);
                    const long code = std::strtol(hex.c_str(),
                                                  nullptr, 16);
                    // ASCII only; everything the reports emit.
                    out += static_cast<char>(code & 0x7f);
                    p += 4;
                    break;
                  }
                  default: return fail("bad escape");
                }
                ++p;
            } else {
                out += *p++;
            }
        }
        if (p >= end)
            return fail("unterminated string");
        ++p; // closing quote
        return out;
    }

    resilience::Expected<Json>
    parseNumber()
    {
        char *after = nullptr;
        const double d = std::strtod(p, &after);
        if (after == p || after > end)
            return fail("bad number");
        p = after;
        return Json(d);
    }

    resilience::Expected<Json>
    parseObject(int depth)
    {
        ++p; // '{'
        Json obj = Json::object();
        skipWs();
        if (p < end && *p == '}') {
            ++p;
            return obj;
        }
        for (;;) {
            skipWs();
            if (p >= end || *p != '"')
                return fail("expected object key");
            auto key = parseString();
            if (!key.ok())
                return key.error();
            skipWs();
            if (p >= end || *p != ':')
                return fail("expected ':'");
            ++p;
            auto value = parseValue(depth + 1);
            if (!value.ok())
                return value.error();
            obj.set(*key, std::move(*value));
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            if (p < end && *p == '}') {
                ++p;
                return obj;
            }
            return fail("expected ',' or '}'");
        }
    }

    resilience::Expected<Json>
    parseArray(int depth)
    {
        ++p; // '['
        Json arr = Json::array();
        skipWs();
        if (p < end && *p == ']') {
            ++p;
            return arr;
        }
        for (;;) {
            auto value = parseValue(depth + 1);
            if (!value.ok())
                return value.error();
            arr.push(std::move(*value));
            skipWs();
            if (p < end && *p == ',') {
                ++p;
                continue;
            }
            if (p < end && *p == ']') {
                ++p;
                return arr;
            }
            return fail("expected ',' or ']'");
        }
    }
};

} // namespace

std::string
jsonString(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

Json &
Json::set(const std::string &key, Json value)
{
    kind_ = Kind::Object;
    for (auto &member : members_) {
        if (member.first == key) {
            member.second = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

const Json *
Json::find(const std::string &key) const
{
    for (const auto &member : members_)
        if (member.first == key)
            return &member.second;
    return nullptr;
}

const Json *
Json::findPath(const std::string &dottedPath) const
{
    const Json *node = this;
    std::size_t begin = 0;
    while (node && begin <= dottedPath.size()) {
        const std::size_t dot = dottedPath.find('.', begin);
        const std::string key =
            dottedPath.substr(begin, dot == std::string::npos
                                         ? std::string::npos
                                         : dot - begin);
        node = node->find(key);
        if (dot == std::string::npos)
            return node;
        begin = dot + 1;
    }
    return node;
}

resilience::Expected<std::size_t>
Json::countAt(const std::string &key) const
{
    constexpr double kMaxCount = 9007199254740992.0; // 2^53
    const Json *v = find(key);
    if (!v || !v->isNumber())
        return resilience::errorf(resilience::Errc::BadFormat,
                                  "missing count '%s'", key.c_str());
    // The negated range test also refuses NaN.
    const double d = v->number_;
    if (!(d >= 0.0 && d <= kMaxCount) || d != std::floor(d))
        return resilience::errorf(
            resilience::Errc::BadFormat,
            "'%s' is %g, not a count (an integer in [0, 2^53])",
            key.c_str(), d);
    return static_cast<std::size_t>(d);
}

Json &
Json::push(Json value)
{
    kind_ = Kind::Array;
    items_.push_back(std::move(value));
    return *this;
}

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    const std::string pad(static_cast<std::size_t>(indent) *
                              static_cast<std::size_t>(depth + 1),
                          ' ');
    const std::string close(static_cast<std::size_t>(indent) *
                                static_cast<std::size_t>(depth),
                            ' ');
    const char *nl = indent > 0 ? "\n" : "";
    switch (kind_) {
      case Kind::Null: out += "null"; break;
      case Kind::Bool: out += bool_ ? "true" : "false"; break;
      case Kind::Number: appendNumber(out, number_); break;
      case Kind::String: out += jsonString(string_); break;
      case Kind::Array:
        if (items_.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
            out += i ? "," : "";
            out += nl;
            out += indent > 0 ? pad : "";
            items_[i].dumpTo(out, indent, depth + 1);
        }
        out += nl;
        out += indent > 0 ? close : "";
        out += ']';
        break;
      case Kind::Object:
        if (members_.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            out += i ? "," : "";
            out += nl;
            out += indent > 0 ? pad : "";
            out += jsonString(members_[i].first);
            out += indent > 0 ? ": " : ":";
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        out += nl;
        out += indent > 0 ? close : "";
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

resilience::Expected<Json>
Json::parse(const std::string &text)
{
    Parser parser{text.data(), text.data() + text.size(),
                  text.data()};
    auto value = parser.parseValue(0);
    if (!value.ok())
        return value.error();
    parser.skipWs();
    if (parser.p != parser.end)
        return parser.fail("trailing garbage");
    return value;
}

} // namespace msim::util
