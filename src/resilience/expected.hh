/**
 * @file
 * Lightweight Expected<T> result type for structured error
 * propagation. Loaders (trace/scene/cache artifacts, checkpoint
 * manifests, benchmark lookup) return Expected instead of calling
 * sim::fatal, so callers decide between graceful degradation
 * (regenerate a cache, quarantine a served shard) and a clean exit
 * with a usable message.
 */

#ifndef MSIM_RESILIENCE_EXPECTED_HH
#define MSIM_RESILIENCE_EXPECTED_HH

#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

namespace msim::resilience
{

/** Error categories: every recovery path switches on one of these. */
enum class Errc {
    Io,             // read/write syscall-level failure
    NotFound,       // the artifact simply does not exist (benign)
    Truncated,      // fewer rows/bytes than the header promised
    BadVersion,     // artifact format version mismatch
    BadFingerprint, // scene/config fingerprint mismatch (stale)
    BadChecksum,    // content checksum mismatch (corruption)
    BadFormat,      // unparseable structure
    UnknownAlias,   // benchmark alias lookup failed
    FrameTimeout,   // a frame blew its watchdog budget
    Exhausted,      // a run produced no result at all
    Injected,       // failure produced by the fault-injection layer
    Busy,           // a bounded resource is at capacity (backpressure)
};

const char *errcName(Errc code);

struct Error
{
    Errc code = Errc::Io;
    std::string message;
};

/** printf-style Error constructor. */
Error errorf(Errc code, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/**
 * Holds either a T or an Error. Deliberately minimal (no monadic
 * chaining): check ok(), then value() or error().
 */
template <typename T> class [[nodiscard]] Expected
{
  public:
    Expected(T value) : value_(std::move(value)) {}
    Expected(Error error) : error_(std::move(error)) {}

    bool ok() const { return value_.has_value(); }
    explicit operator bool() const { return ok(); }

    T &value() { return *value_; }
    const T &value() const { return *value_; }
    T &operator*() { return *value_; }
    const T &operator*() const { return *value_; }
    T *operator->() { return &*value_; }
    const T *operator->() const { return &*value_; }

    const Error &error() const { return error_; }

  private:
    std::optional<T> value_;
    Error error_;
};

template <> class [[nodiscard]] Expected<void>
{
  public:
    Expected() = default;
    Expected(Error error) : error_(std::move(error)), ok_(false) {}

    bool ok() const { return ok_; }
    explicit operator bool() const { return ok_; }

    const Error &error() const { return error_; }

  private:
    Error error_;
    bool ok_ = true;
};

} // namespace msim::resilience

#endif // MSIM_RESILIENCE_EXPECTED_HH
