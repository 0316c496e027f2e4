#include "obs/timeline.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <string_view>
#include <utility>

#include "obs/stats.hh"
#include "obs/trace_export.hh"
#include "resilience/artifact.hh"
#include "util/json.hh"

namespace msim::obs
{

namespace
{

// Written only during single-threaded setup (the CLI's --timeline,
// tests).
bool gTimelineEnabled = false;

thread_local TimelineRecorder *tlsTimelineOverride = nullptr;

constexpr std::string_view kSpanPrefix = "obs.span.";

} // namespace

bool
timelineEnabled()
{
    return gTimelineEnabled;
}

void
setTimelineEnabled(bool on)
{
    gTimelineEnabled = on;
}

void
TimelineRecorder::mergeFrom(TimelineRecorder &other)
{
    if (other.spans_.empty())
        return;
    spans_.insert(spans_.end(),
                  std::make_move_iterator(other.spans_.begin()),
                  std::make_move_iterator(other.spans_.end()));
    other.spans_.clear();
}

TimelineRecorder &
TimelineRecorder::global()
{
    if (tlsTimelineOverride)
        return *tlsTimelineOverride;
    static TimelineRecorder recorder(0);
    return recorder;
}

TimelineOverride::TimelineOverride(TimelineRecorder &shard)
    : previous_(tlsTimelineOverride)
{
    tlsTimelineOverride = &shard;
}

TimelineOverride::~TimelineOverride()
{
    tlsTimelineOverride = previous_;
}

Span::Span(const char *name, std::uint64_t arg, std::string detail)
    : registry_(&processRegistry()),
      recorder_(timelineEnabled() ? &TimelineRecorder::global()
                                  : nullptr),
      name_(name), detail_(std::move(detail)), arg_(arg),
      t0_(wallSeconds())
{}

Span::Span(const char *name, HostDomain domain, std::uint64_t arg,
           std::string detail)
    : Span(name, arg, std::move(detail))
{
    if (!hostAttribEnabled())
        return;
    detail::AttribBuckets &b = detail::tlsBuckets();
    if (!b.open)
        return;
    previous_ = detail::attribSwitch(b, domain, t0_);
    ++b.entries[static_cast<std::size_t>(domain)];
    attributed_ = true;
}

Span::~Span()
{
    const double t1 = wallSeconds();
    if (attributed_)
        detail::attribSwitch(detail::tlsBuckets(), previous_, t1);
    const std::string stem = std::string(kSpanPrefix) + name_;
    registry_->scalar(stem + ".seconds",
                      "host wall seconds inside this span") += t1 - t0_;
    ++registry_->scalar(stem + ".entries", "times this span was entered");
    if (recorder_)
        recorder_->record(name_, t0_, t1, arg_, std::move(detail_));
}

std::vector<SpanTotal>
spanTotals(const StatsRegistry &registry)
{
    constexpr std::string_view kSeconds = ".seconds";
    constexpr std::string_view kEntries = ".entries";
    static_assert(kSeconds.size() == kEntries.size());
    std::map<std::string, SpanTotal> byName;
    registry.visit(
        [&](const Stat &stat) {
            std::string_view key = stat.name();
            key.remove_prefix(kSpanPrefix.size());
            const bool seconds = key.ends_with(kSeconds);
            if (!seconds && !key.ends_with(kEntries))
                return;
            key.remove_suffix(kSeconds.size());
            SpanTotal &total = byName[std::string(key)];
            total.name = key;
            if (seconds)
                total.seconds = stat.value();
            else
                total.entries =
                    static_cast<std::uint64_t>(stat.value());
        },
        std::string(kSpanPrefix) + "*");
    std::vector<SpanTotal> totals;
    totals.reserve(byName.size());
    for (auto &[name, total] : byName)
        totals.push_back(std::move(total));
    return totals;
}

void
writeTimelineChrome(std::ostream &os,
                    const std::vector<HostSpan> &spans,
                    std::size_t workers)
{
    double origin = 0.0;
    bool haveOrigin = false;
    // Worker lanes are labelled densely (idle workers show as empty
    // lanes); anything above — request lanes at kRequestTrackBase —
    // is labelled sparsely, only where a span actually landed.
    std::vector<std::uint32_t> sparse;
    for (const HostSpan &s : spans) {
        if (!haveOrigin || s.begin < origin) {
            origin = s.begin;
            haveOrigin = true;
        }
        if (s.track >= workers)
            sparse.push_back(s.track);
    }
    std::sort(sparse.begin(), sparse.end());
    sparse.erase(std::unique(sparse.begin(), sparse.end()),
                 sparse.end());

    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    auto label = [&](std::uint32_t t) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
           << "\"tid\":" << t << ",\"args\":{\"name\":\"";
        if (t >= kRequestTrackBase)
            os << "request " << (t - kRequestTrackBase);
        else
            os << "worker " << t << (t == 0 ? " (caller)" : "");
        os << "\"}}";
    };
    for (std::size_t t = 0; t < workers; ++t)
        label(static_cast<std::uint32_t>(t));
    for (std::uint32_t t : sparse)
        label(t);
    for (const HostSpan &s : spans) {
        const double ts = (s.begin - origin) * 1e6;
        const double dur = (s.end - s.begin) * 1e6;
        if (!first)
            os << ',';
        first = false;
        os << "{\"name\":" << util::jsonString(s.name)
           << ",\"cat\":\"host\",\"ph\":\"X\",\"ts\":"
           << formatUs(ts) << ",\"dur\":" << formatUs(dur)
           << ",\"pid\":0,\"tid\":" << s.track
           << ",\"args\":{\"arg\":" << s.arg;
        if (!s.detail.empty())
            os << ",\"detail\":" << util::jsonString(s.detail);
        os << "}}";
    }
    os << "]}\n";
}

resilience::Expected<void>
writeTimelineChrome(const std::string &path,
                    const TimelineRecorder &recorder,
                    std::size_t workers)
{
    std::ostringstream os;
    writeTimelineChrome(os, recorder.spans(), workers);
    return resilience::atomicWriteFile(path, os.str());
}

} // namespace msim::obs
