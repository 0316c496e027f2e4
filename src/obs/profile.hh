/**
 * @file
 * Wall-clock phase profiling and long-run progress reporting.
 *
 * PhaseProfiler accumulates named wall-clock phases (functional pass,
 * feature build, clustering, representative simulation, estimation);
 * the MEGsim driver and bench binaries print its report so every perf
 * claim names where the time went. Heartbeat prints a throughput/ETA
 * line to stderr during multi-minute ground-truth simulations.
 */

#ifndef MSIM_OBS_PROFILE_HH
#define MSIM_OBS_PROFILE_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace msim::obs
{

/** Monotonic wall-clock seconds. */
double wallSeconds();

class PhaseProfiler
{
  public:
    struct Phase
    {
        std::string name;
        double seconds = 0.0;
        std::uint64_t entries = 0;
    };

    /**
     * RAII scope adding its lifetime to a named phase. Holds the name
     * as a view — no allocation on entry — so the referenced string
     * must outlive the scope (phase names are string literals).
     */
    class Scoped
    {
      public:
        Scoped(PhaseProfiler &profiler, std::string_view name)
            : profiler_(&profiler), name_(name), t0_(wallSeconds())
        {}
        Scoped(const Scoped &) = delete;
        Scoped &operator=(const Scoped &) = delete;
        ~Scoped() { profiler_->add(name_, wallSeconds() - t0_); }

      private:
        PhaseProfiler *profiler_;
        std::string_view name_;
        double t0_;
    };

    void add(std::string_view name, double seconds);

    const std::vector<Phase> &phases() const { return phases_; }
    double totalSeconds() const;
    bool empty() const { return phases_.empty(); }
    void clear() { phases_.clear(); }

    /**
     * Aggregate another profiler's phases into this one (per-worker
     * shards folding into the session profile; the bench phase report
     * at exit sums worker time instead of losing it).
     */
    void mergeFrom(const PhaseProfiler &other);

    /** Fixed-width per-phase summary (seconds and share). */
    void report(std::ostream &os) const;

    /**
     * Process-wide profiler used by the MEGsim driver and benches.
     * Like a StatsRegistry, a profiler is single-writer: global()
     * honors the calling thread's PhaseProfilerOverride, so phases
     * timed inside an exec::Pool job land in the worker's shard and
     * are merged back on the caller thread.
     */
    static PhaseProfiler &global();

  private:
    std::vector<Phase> phases_; // insertion order = execution order
};

/** RAII thread-local redirect of PhaseProfiler::global() to a shard. */
class PhaseProfilerOverride
{
  public:
    explicit PhaseProfilerOverride(PhaseProfiler &shard);
    ~PhaseProfilerOverride();
    PhaseProfilerOverride(const PhaseProfilerOverride &) = delete;
    PhaseProfilerOverride &
    operator=(const PhaseProfilerOverride &) = delete;

  private:
    PhaseProfiler *previous_;
};

class Heartbeat
{
  public:
    /**
     * Progress over @p total units (frames). The clock and the rate's
     * done-count start at the first tick(), not here, so a pass built
     * long before it runs reports its own rate. Prints at most once
     * per @p intervalSeconds, only after the first interval has
     * passed — short runs stay silent.
     */
    Heartbeat(std::size_t total, std::string label,
              double intervalSeconds = 2.0);

    /** Report that @p done units are complete. */
    void tick(std::size_t done);

    /** Final newline if anything was printed. */
    void finish();

    ~Heartbeat() { finish(); }

  private:
    std::size_t total_;
    std::string label_;
    double interval_;
    double start_ = 0.0;
    double lastPrint_ = 0.0;
    std::size_t startDone_ = 0;
    bool started_ = false;
    bool printed_ = false;
};

} // namespace msim::obs

#endif // MSIM_OBS_PROFILE_HH
