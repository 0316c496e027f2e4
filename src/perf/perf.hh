/**
 * @file
 * Hot-path microbenchmark harness and the versioned BENCH_gpusim.json
 * perf report it emits. The harness drives the cycle-level timing
 * simulator over the Table II suite exactly as the ground-truth pass
 * does (geometry -> timing, cold caches per frame) but with no disk
 * cache, no checkpointing and no pool — pure simulator throughput, so
 * the numbers track the hot path and nothing else.
 *
 * The report records frames/sec and simulated Mcycles/sec per
 * benchmark plus the suite aggregate and the per-phase wall split
 * from a PhaseProfiler, under the `megsim-bench-v1` schema. Every
 * perf PR appends a point to this trajectory: `bench/hotpath` and
 * `megsim-cli perf` both emit it, and CI compares a fresh run against
 * the committed baseline (warn-only — wall clocks are machine-
 * dependent, which is why comparisons use a wide relative band).
 */

#ifndef MSIM_PERF_PERF_HH
#define MSIM_PERF_PERF_HH

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/expected.hh"
#include "util/json.hh"

namespace msim::perf
{

/** Throughput of one benchmark's timing-simulator run. */
struct BenchPerf
{
    std::string alias;
    std::size_t frames = 0;
    std::uint64_t cycles = 0;     // simulated GPU cycles
    double wallSeconds = 0.0;     // host wall clock (geometry+timing)
    double framesPerSec = 0.0;
    double mcyclesPerSec = 0.0;   // simulated Mcycles per host second
};

/** One row of the per-phase wall split (PhaseProfiler snapshot). */
struct PhaseSplit
{
    std::string name;
    double seconds = 0.0;
};

struct PerfReport
{
    static constexpr const char *kSchema = "megsim-bench-v1";

    // Run parameters (so two reports are known comparable).
    std::size_t frameLimit = 0; // 0 = full sequences
    double scale = 1.0;
    bool baseline = false;      // Table I GPU instead of eval profile

    std::vector<BenchPerf> benches;
    std::vector<PhaseSplit> phases;

    // Aggregates over `benches`.
    std::size_t totalFrames = 0;
    std::uint64_t totalCycles = 0;
    double totalWallSeconds = 0.0;
    double framesPerSec = 0.0;
    double mcyclesPerSec = 0.0;

    void computeAggregates();

    util::Json toJson() const;
    static resilience::Expected<PerfReport> fromJson(
        const util::Json &json);

    resilience::Expected<void> save(const std::string &path) const;
    static resilience::Expected<PerfReport> load(
        const std::string &path);
};

struct PerfOptions
{
    /** Aliases to run; empty = the full Table II suite. */
    std::vector<std::string> benches;
    /** Frames per benchmark; 0 = MEGSIM_FRAME_LIMIT, then full. */
    std::size_t frames = 0;
    double scale = 1.0;
    bool baseline = false;
};

/** Run the hot-path microbench and assemble the report. */
resilience::Expected<PerfReport> runHotpath(const PerfOptions &options);

/**
 * One out-of-band frames/sec deviation between two perf reports —
 * the structured form both the warn-only and the strict (--strict,
 * exit 10) comparison paths consume. deltaPercent < 0 is a
 * regression, > 0 an improvement beyond the band.
 */
struct PerfDelta
{
    std::string what; // benchmark alias or "suite"
    double current = 0.0;
    double baseline = 0.0;
    double deltaPercent = 0.0;
};

/**
 * Every benchmark (and the suite) whose frames/sec deviates from
 * @p baseline by more than @p bandPercent. Empty = within the band.
 */
std::vector<PerfDelta> comparePerfDeltas(const PerfReport &current,
                                         const PerfReport &baseline,
                                         double bandPercent);

/** comparePerfDeltas() rendered as ready-to-print warning lines. */
std::vector<std::string> compareReports(const PerfReport &current,
                                        const PerfReport &baseline,
                                        double bandPercent);

} // namespace msim::perf

#endif // MSIM_PERF_PERF_HH
