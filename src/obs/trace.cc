#include "obs/trace.hh"

#include <cstdlib>
#include <cstring>

#include "util/env.hh"

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

ObsConfig
ObsConfig::fromEnv()
{
    ObsConfig config;
    config.traceCapacity = static_cast<std::size_t>(util::numberFromEnv(
        "MEGSIM_TRACE_CAPACITY", util::NumberRule::Count,
        static_cast<double>(config.traceCapacity), "using the default"));
    if (const char *env = std::getenv("MEGSIM_STATS_DUMP")) {
        if (env[0] && std::strcmp(env, "0") != 0)
            config.statsDump = std::strcmp(env, "1") ? env : "*";
    }
    return config;
}

TraceBuffer::TraceBuffer(const ObsConfig &config)
    : capacity_(config.traceCapacity ? config.traceCapacity : 1),
      enabled_(config.traceEnabled),
      ring_(enabled_ ? capacity_ : 0)
{}

void
TraceBuffer::forEach(
    const std::function<void(const TraceEvent &)> &fn) const
{
    const std::size_t n = size();
    const std::size_t first =
        emitted_ < capacity_
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
