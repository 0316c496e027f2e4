#include "obs/timeline.hh"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "obs/trace_export.hh"
#include "sim/logging.hh"
#include "util/json.hh"

namespace msim::obs
{

namespace
{

bool gTimelineEnabled = false;
std::string gTimelinePath;

bool
initTimelineFromEnv()
{
    const char *env = std::getenv("MEGSIM_TIMELINE");
    if (env && *env) {
        gTimelinePath =
            std::string(env) == "1" ? "timeline.json" : env;
        gTimelineEnabled = true;
    }
    return true;
}

// Runs once before main() can spawn threads; setTimelineEnabled is
// the programmatic override for tests and the CLI.
[[maybe_unused]] const bool gTimelineInit = initTimelineFromEnv();

thread_local TimelineRecorder *tlsTimelineOverride = nullptr;

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

const std::string &
timelinePath()
{
    return gTimelinePath;
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

void
writeTimelineChrome(const std::string &path,
                    const TimelineRecorder &recorder,
                    std::size_t workers)
{
    std::ofstream out(path);
    if (!out)
        sim::fatal("cannot write timeline file '%s'", path.c_str());
    writeTimelineChrome(out, recorder.spans(), workers);
}

} // namespace msim::obs
