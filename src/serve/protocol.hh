/**
 * @file
 * Wire protocol between the worker fleet and its forked workers
 * (and between `megsim-cli submit` and the serve socket).
 *
 * Every message is one length-prefixed frame:
 *
 *   8 bytes  magic "MSIMFRM1"
 *   8 bytes  payload length, little-endian u64
 *   8 bytes  FNV-1a 64 checksum of the payload, little-endian u64
 *   N bytes  payload (one compact util::Json object)
 *
 * The checksum lets the fleet tell a crashed worker (EOF → Truncated)
 * from a corrupted reply (BadChecksum) — the two take different
 * recovery paths. readFrame() polls the descriptor against a
 * wall-clock deadline so a hung worker surfaces as FrameTimeout
 * instead of blocking the scheduler forever; writes retry on EINTR
 * and partial transfers, and a closed peer surfaces as Errc::Io
 * (SIGPIPE must be ignored by the writer; serve::Fleet does so when
 * it is constructed).
 *
 * A message is only ever data: readMessage() parses the payload and
 * acts on nothing in it. Shard replies always cross the pipe: a
 * 32-frame shard's reply is under 7 KB of JSON, and even one shard per
 * full-length game stays near 1 MB, far under kMaxFramePayload.
 */

#ifndef MSIM_SERVE_PROTOCOL_HH
#define MSIM_SERVE_PROTOCOL_HH

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/megsim.hh"
#include "resilience/checkpoint.hh"
#include "resilience/expected.hh"
#include "util/json.hh"

namespace msim::serve
{

/** Frame magic; a mismatch means the stream is garbage (BadFormat). */
inline constexpr char kFrameMagic[8] = {'M', 'S', 'I', 'M',
                                        'F', 'R', 'M', '1'};

/** Refuse absurd frame lengths before allocating (corrupt header). */
inline constexpr std::uint64_t kMaxFramePayload = 1ULL << 30;

/**
 * Write one frame. Retries on EINTR and short writes; a closed or
 * broken peer yields Errc::Io.
 */
resilience::Expected<void> writeFrame(int fd,
                                      const std::string &payload);

/**
 * Read one frame, polling against @p timeoutMs (< 0, or beyond about
 * 24.8 days, blocks forever).
 * EOF mid-frame (or before one) is Truncated, a checksum mismatch is
 * BadChecksum, a bad magic or oversized length is BadFormat, and an
 * expired deadline is FrameTimeout.
 */
resilience::Expected<std::string> readFrame(int fd, double timeoutMs);

/** writeFrame() of @p message serialized compactly. */
resilience::Expected<void> writeMessage(int fd,
                                        const util::Json &message);

/** readFrame() + JSON parse (a parse failure is BadFormat). */
resilience::Expected<util::Json> readMessage(int fd,
                                             double timeoutMs);

/**
 * One unit of supervised campaign work: the frame range
 * [beginFrame, endFrame) of one benchmark. `attempt` counts prior
 * failures of this shard — workers feed it to the worker.* fault
 * dice, so a respawned worker deterministically re-rolls the same
 * outcome for the same attempt.
 */
struct ShardSpec
{
    std::size_t id = 0;
    std::string bench;
    std::size_t beginFrame = 0;
    std::size_t endFrame = 0;
    std::size_t attempt = 0;
};

/** The fleet→worker request for one shard. */
util::Json shardRequest(const ShardSpec &spec);

/** Parse a shard request; BadFormat on a missing/mistyped field. */
resilience::Expected<ShardSpec> parseShardRequest(const util::Json &m);

/**
 * The checkpoint journaling frames [@p beginFrame, @p endFrame) of
 * @p data: its stem derives from the benchmark's, so shard journals
 * live next to the cache and never collide with the in-process pass's
 * checkpoint. The worker appends to it; the scheduler discards it
 * once the shard's rows are recorded.
 */
resilience::Checkpoint shardCheckpoint(const megsim::BenchmarkData &data,
                                       std::size_t beginFrame,
                                       std::size_t endFrame);

} // namespace msim::serve

#endif // MSIM_SERVE_PROTOCOL_HH
