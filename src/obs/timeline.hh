/**
 * @file
 * Host-time spans: the one instrument for a named host region, and the
 * per-worker timeline it can record on.
 *
 * Where the TraceBuffer records *simulated* time (cycles inside one
 * frame), an obs::Span records *host* time. Every Span times its own
 * lifetime and adds it to `obs.span.<name>.seconds` and
 * `obs.span.<name>.entries` in processRegistry(), which exec::Pool
 * shards per worker and merges in worker-index order, so the entry
 * counts are identical at any thread count. The run ledger's `phase`
 * events and the bench binaries' exit report read these totals
 * (spanTotals()).
 *
 * A Span given a HostDomain also does the exclusive attribution
 * switch of an AttribScope (obs/attrib.hh) while attribution is on,
 * so one region is timed by one scope. AttribScope itself stays only
 * in the hot loops, where a registry add per entry would cost too
 * much.
 *
 * While the timeline is on (`--timeline`), a Span also records a
 * HostSpan on the TimelineRecorder. Spans carry a track id (the
 * worker index; the caller thread is track 0) so the Chrome
 * `trace_event` export opens in Perfetto with one lane per worker —
 * an 8-thread campaign visually shows its pool utilization instead
 * of asserting it through a counter.
 *
 * Ownership follows the StatsRegistry rule: a TimelineRecorder is
 * single-writer. exec::Pool gives each worker a shard (with the
 * worker's track id) via the thread-local TimelineOverride and merges
 * the shards back in worker-index order when the job completes; the
 * process-wide recorder is only ever written by the caller thread.
 * Recording costs one predictable branch while the timeline is off.
 */

#ifndef MSIM_OBS_TIMELINE_HH
#define MSIM_OBS_TIMELINE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "obs/attrib.hh"
#include "resilience/expected.hh"

namespace msim::obs
{

double wallSeconds(); // obs/profile.hh

class StatsRegistry; // obs/stats.hh

/** One host-time interval on a worker track. */
struct HostSpan
{
    const char *name;    // static string; never owned
    std::string detail;  // optional label (benchmark alias, path)
    std::uint32_t track; // worker index; 0 = caller thread
    double begin;        // wallSeconds()
    double end;
    std::uint64_t arg;   // payload: item index / frame / bytes
};

/**
 * Track ids at or above this base are per-request lanes ("request N"
 * where N = track − base) instead of worker lanes — the scheduler
 * records each request's queue-wait and service spans there, so a
 * concurrent serve run opens in Perfetto with one lane per request
 * above the worker lanes. The export labels these lanes sparsely:
 * only tracks that recorded a span get a name, so request ids stay
 * usable as track offsets without materializing 65k empty lanes.
 */
inline constexpr std::uint32_t kRequestTrackBase = 1u << 16;

/** True when `--timeline` (setTimelineEnabled) turned host timelines
 *  on for this process. Read on every record(); written only during
 *  single-threaded setup. */
bool timelineEnabled();
void setTimelineEnabled(bool on);

class TimelineRecorder
{
  public:
    explicit TimelineRecorder(std::uint32_t track = 0)
        : track_(track)
    {}
    TimelineRecorder(const TimelineRecorder &) = delete;
    TimelineRecorder &operator=(const TimelineRecorder &) = delete;

    std::uint32_t track() const { return track_; }

    /**
     * Record a completed span on this recorder's track. The raw event
     * API for lanes no scope covers (pool chunks and waits, request
     * lanes); a named region uses obs::Span.
     */
    void
    record(const char *name, double begin, double end,
           std::uint64_t arg = 0, std::string detail = {})
    {
        if (!timelineEnabled()) [[likely]]
            return;
        spans_.push_back(
            HostSpan{name, std::move(detail), track_, begin, end, arg});
    }

    const std::vector<HostSpan> &spans() const { return spans_; }
    std::size_t size() const { return spans_.size(); }
    void clear() { spans_.clear(); }

    /** Move @p other's spans onto this recorder (worker shards folding
     *  into the process recorder in worker-index order). Tracks are
     *  preserved — that is the whole point. */
    void mergeFrom(TimelineRecorder &other);

    /**
     * Process-wide recorder (track 0). Honors the calling thread's
     * TimelineOverride, so spans recorded inside an exec::Pool job
     * land on the worker's shard and keep its track id.
     */
    static TimelineRecorder &global();

  private:
    std::vector<HostSpan> spans_;
    std::uint32_t track_;
};

/** RAII thread-local redirect of TimelineRecorder::global(). */
class TimelineOverride
{
  public:
    explicit TimelineOverride(TimelineRecorder &shard);
    ~TimelineOverride();
    TimelineOverride(const TimelineOverride &) = delete;
    TimelineOverride &operator=(const TimelineOverride &) = delete;

  private:
    TimelineRecorder *previous_;
};

/**
 * RAII host-time scope over a named region (dotted name, a string
 * literal). Its lifetime lands in the processRegistry() and, while the
 * timeline is on, the TimelineRecorder active at *construction*, so a
 * span opened inside a pool job lands on that worker's shards.
 */
class Span
{
  public:
    explicit Span(const char *name, std::uint64_t arg = 0,
                  std::string detail = {});
    /** Also charges its lifetime to @p domain, exclusively, as an
     *  AttribScope would. */
    Span(const char *name, HostDomain domain, std::uint64_t arg = 0,
         std::string detail = {});
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    StatsRegistry *registry_;
    TimelineRecorder *recorder_; // null while the timeline is off
    const char *name_;
    std::string detail_;
    std::uint64_t arg_;
    double t0_;
    HostDomain previous_ = HostDomain::Other;
    bool attributed_ = false;
};

/** One span name's totals, read back from a registry. */
struct SpanTotal
{
    std::string name;
    double seconds = 0.0;
    std::uint64_t entries = 0;
};

/** Every `obs.span.<name>.*` total in @p registry, in name order. */
std::vector<SpanTotal> spanTotals(const StatsRegistry &registry);

/**
 * Export spans as Chrome trace_event JSON (chrome://tracing /
 * Perfetto): one tid lane per track, labelled "worker N" ("worker 0
 * (caller)" for track 0), timestamps in microseconds relative to the
 * earliest span. @p workers labels that many tracks even if some
 * recorded nothing, so an idle worker shows as an empty lane.
 */
void writeTimelineChrome(std::ostream &os,
                         const std::vector<HostSpan> &spans,
                         std::size_t workers);

/** Export to @p path, written atomically; an error names the path. */
resilience::Expected<void>
writeTimelineChrome(const std::string &path,
                    const TimelineRecorder &recorder,
                    std::size_t workers);

} // namespace msim::obs

#endif // MSIM_OBS_TIMELINE_HH
