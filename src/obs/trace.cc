#include "obs/trace.hh"

namespace msim::obs
{

const char *
traceCategoryName(TraceCategory cat)
{
    switch (cat) {
      case TraceCategory::Stage: return "stage";
      case TraceCategory::Queue: return "queue";
      case TraceCategory::Cache: return "cache";
      case TraceCategory::Dram: return "dram";
      case TraceCategory::Frame: return "frame";
      case TraceCategory::Phase: return "phase";
    }
    return "?";
}

TraceBuffer::TraceBuffer(std::size_t capacity)
    : capacity_(capacity), ring_(capacity)
{}

void
TraceBuffer::forEach(
    const std::function<void(const TraceEvent &)> &fn) const
{
    const std::size_t n = size();
    // `<=` keeps a buffer with no ring (capacity 0) off the modulo.
    const std::size_t first =
        emitted_ <= capacity_
            ? 0
            : static_cast<std::size_t>(emitted_ % capacity_);
    for (std::size_t i = 0; i < n; ++i)
        fn(ring_[(first + i) % capacity_]);
}

std::vector<TraceEvent>
TraceBuffer::snapshot() const
{
    std::vector<TraceEvent> events;
    events.reserve(size());
    forEach([&](const TraceEvent &e) { events.push_back(e); });
    return events;
}

} // namespace msim::obs
