#include "serve/protocol.hh"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <limits>

#include "obs/profile.hh"
#include "resilience/checksum.hh"
#include "sim/random.hh"

namespace msim::serve
{

using resilience::Errc;
using resilience::errorf;
using resilience::Expected;

namespace
{

void
putU64(char *out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint64_t
getU64(const char *in)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(in[i]))
             << (8 * i);
    return v;
}

Expected<void>
writeAll(int fd, const char *data, std::size_t size)
{
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::write(fd, data + done, size - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errorf(Errc::Io, "frame write failed: %s",
                          std::strerror(errno));
        }
        done += static_cast<std::size_t>(n);
    }
    return {};
}

/**
 * Read exactly @p size bytes into @p out, polling against the shared
 * deadline. @p deadline is an obs::wallSeconds() instant, or < 0 for
 * no limit. @p out grows as bytes arrive, at most doubling what has
 * arrived (and at least by kReadChunk): a length is only the peer's
 * claim, and bytes the peer never sends must not cost the reader.
 */
Expected<void>
readAll(int fd, std::string &out, std::size_t size, double deadline)
{
    constexpr std::size_t kReadChunk = std::size_t{64} << 10;
    out.clear();
    std::size_t done = 0;
    while (done < size) {
        int timeoutMs = -1;
        if (deadline >= 0.0) {
            const double left = deadline - obs::wallSeconds();
            if (left <= 0.0)
                return errorf(Errc::FrameTimeout,
                              "frame read timed out");
            // A deadline beyond int's range of milliseconds (~24.8
            // days, or infinite) means no limit.
            const double ms = left * 1000.0;
            if (ms < static_cast<double>(
                         std::numeric_limits<int>::max()))
                timeoutMs = static_cast<int>(ms) + 1;
        }
        struct pollfd pfd = {fd, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, timeoutMs);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            return errorf(Errc::Io, "frame poll failed: %s",
                          std::strerror(errno));
        }
        if (ready == 0)
            return errorf(Errc::FrameTimeout, "frame read timed out");
        if (done == out.size())
            out.resize(std::min(size, done + std::max(done, kReadChunk)));
        const ssize_t n = ::read(fd, out.data() + done, out.size() - done);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return errorf(Errc::Io, "frame read failed: %s",
                          std::strerror(errno));
        }
        if (n == 0)
            return errorf(Errc::Truncated,
                          "peer closed mid-frame (%zu of %zu bytes)",
                          done, size);
        done += static_cast<std::size_t>(n);
    }
    return {};
}

} // namespace

Expected<void>
writeFrame(int fd, const std::string &payload)
{
    char header[24];
    std::memcpy(header, kFrameMagic, sizeof(kFrameMagic));
    putU64(header + 8, payload.size());
    putU64(header + 16, resilience::fnv1a(payload));
    if (auto ok = writeAll(fd, header, sizeof(header)); !ok.ok())
        return ok;
    return writeAll(fd, payload.data(), payload.size());
}

Expected<std::string>
readFrame(int fd, double timeoutMs)
{
    const double deadline =
        timeoutMs < 0.0 ? -1.0
                        : obs::wallSeconds() + timeoutMs / 1000.0;
    std::string header;
    if (auto ok = readAll(fd, header, 24, deadline); !ok.ok())
        return ok.error();
    if (std::memcmp(header.data(), kFrameMagic, sizeof(kFrameMagic)) != 0)
        return errorf(Errc::BadFormat, "bad frame magic");
    const std::uint64_t length = getU64(header.data() + 8);
    const std::uint64_t checksum = getU64(header.data() + 16);
    if (length > kMaxFramePayload)
        return errorf(Errc::BadFormat,
                      "frame length %llu exceeds the %llu cap",
                      static_cast<unsigned long long>(length),
                      static_cast<unsigned long long>(
                          kMaxFramePayload));
    std::string payload;
    if (auto ok = readAll(fd, payload, static_cast<std::size_t>(length),
                          deadline);
        !ok.ok())
        return ok.error();
    if (resilience::fnv1a(payload) != checksum)
        return errorf(Errc::BadChecksum,
                      "frame checksum mismatch (%zu-byte payload)",
                      payload.size());
    return payload;
}

Expected<void>
writeMessage(int fd, const util::Json &message)
{
    return writeFrame(fd, message.dump(0));
}

Expected<util::Json>
readMessage(int fd, double timeoutMs)
{
    Expected<std::string> payload = readFrame(fd, timeoutMs);
    if (!payload.ok())
        return payload.error();
    Expected<util::Json> parsed = util::Json::parse(*payload);
    if (!parsed.ok())
        return errorf(Errc::BadFormat, "frame payload: %s",
                      parsed.error().message.c_str());
    return parsed;
}

util::Json
shardRequest(const ShardSpec &spec)
{
    util::Json m = util::Json::object();
    m.set("type", "shard");
    m.set("shard", spec.id);
    m.set("bench", spec.bench);
    m.set("begin_frame", spec.beginFrame);
    m.set("end_frame", spec.endFrame);
    m.set("attempt", spec.attempt);
    return m;
}

Expected<ShardSpec>
parseShardRequest(const util::Json &m)
{
    ShardSpec spec;
    const util::Json *bench = m.find("bench");
    if (!bench || !bench->isString())
        return errorf(Errc::BadFormat,
                      "shard request: missing 'bench'");
    spec.bench = bench->asString();
    struct {
        const char *key;
        std::size_t *out;
    } counts[] = {
        {"shard", &spec.id},
        {"begin_frame", &spec.beginFrame},
        {"end_frame", &spec.endFrame},
        {"attempt", &spec.attempt},
    };
    for (const auto &field : counts) {
        auto v = m.countAt(field.key);
        if (!v.ok())
            return errorf(Errc::BadFormat, "shard request: %s",
                          v.error().message.c_str());
        *field.out = *v;
    }
    if (spec.endFrame <= spec.beginFrame)
        return errorf(Errc::BadFormat,
                      "shard request: empty frame range [%zu, %zu)",
                      spec.beginFrame, spec.endFrame);
    return spec;
}

resilience::Checkpoint
shardCheckpoint(const megsim::BenchmarkData &data, std::size_t beginFrame,
                std::size_t endFrame)
{
    return resilience::Checkpoint(
        data.checkpointStem() + ".shard" + std::to_string(beginFrame) +
            "-" + std::to_string(endFrame),
        sim::hashMix(data.cacheKey(), beginFrame, endFrame),
        endFrame - beginFrame, gpusim::FrameStats::csvHeader().size(),
        megsim::activityColumns(data.scene()), beginFrame);
}

} // namespace msim::serve
