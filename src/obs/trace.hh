/**
 * @file
 * Low-overhead pipeline trace-event layer.
 *
 * Units emit interval events (stage activations, queue stalls, cache
 * misses, DRAM transactions) into a fixed-capacity ring buffer; the
 * exporters in trace_export.hh turn the buffer into Chrome
 * `trace_event` JSON (chrome://tracing / Perfetto, Daisen-style) or
 * CSV.
 *
 * Tracing is off by default: only `megsim-cli trace` builds a buffer
 * with a ring, and the emit fast path without one is a single
 * predictable branch.
 *
 * Event names must be string literals (or otherwise outlive the
 * buffer): events store `const char *` to keep emission allocation-
 * free.
 */

#ifndef MSIM_OBS_TRACE_HH
#define MSIM_OBS_TRACE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace msim::obs
{

enum class TraceCategory : std::uint8_t {
    Stage,  // a pipeline stage working on a batch (draw, tile, ...)
    Queue,  // backpressure: producer stalled on a full queue
    Cache,  // cache miss being filled
    Dram,   // a DRAM transaction occupying bank + channel
    Frame,  // whole-frame marker
    Phase,  // coarse pipeline phase (geometry / tiling / raster)
};

const char *traceCategoryName(TraceCategory cat);

struct TraceEvent
{
    const char *name;        // static string; never owned
    TraceCategory category;
    std::uint32_t frame;     // frame index the event belongs to
    sim::Tick begin;         // cycles
    sim::Tick end;           // cycles (== begin for instants)
    std::uint64_t arg;       // payload: count / bytes / address
};

class TraceBuffer
{
  public:
    /** A ring of @p capacity events; 0, the default, records none. */
    explicit TraceBuffer(std::size_t capacity = 0);

    bool enabled() const { return capacity_ > 0; }
    std::size_t capacity() const { return capacity_; }

    /** Record an interval event; keeps the most recent `capacity`. */
    void
    emit(const char *name, TraceCategory cat, std::uint32_t frame,
         sim::Tick begin, sim::Tick end, std::uint64_t arg = 0)
    {
        if (capacity_ == 0) [[likely]]
            return;
        ring_[emitted_ % capacity_] =
            TraceEvent{name, cat, frame, begin, end, arg};
        ++emitted_;
    }

    void
    instant(const char *name, TraceCategory cat, std::uint32_t frame,
            sim::Tick at, std::uint64_t arg = 0)
    {
        emit(name, cat, frame, at, at, arg);
    }

    /** Number of events currently retained. */
    std::size_t
    size() const
    {
        return emitted_ < capacity_ ? static_cast<std::size_t>(emitted_)
                                    : capacity_;
    }

    std::uint64_t emittedCount() const { return emitted_; }

    /** Events that fell off the ring. */
    std::uint64_t
    droppedCount() const
    {
        return emitted_ < capacity_ ? 0 : emitted_ - capacity_;
    }

    void clear() { emitted_ = 0; }

    /** Visit retained events oldest-first. */
    void forEach(const std::function<void(const TraceEvent &)> &fn)
        const;

    std::vector<TraceEvent> snapshot() const;

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> ring_;
    std::uint64_t emitted_ = 0;
};

} // namespace msim::obs

#endif // MSIM_OBS_TRACE_HH
