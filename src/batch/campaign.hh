/**
 * @file
 * Batch campaign runner: the full MEGsim pipeline (ground truth,
 * feature extraction, k-selection, representative estimation) for a
 * whole benchmark suite through ONE shared exec::Pool.
 *
 * The campaign probes every benchmark's ground-truth caches first,
 * then runs a single pool job whose item space splices together
 *
 *   [analyses of cache-fresh benchmarks][frames of all benchmarks
 *    needing (re)generation, bench-major in suite order]
 *
 * Dynamic chunking makes workers flow across benchmark boundaries, so
 * a short benchmark never leaves the pool idle behind a long one, and
 * stale or corrupt caches detected by the resilience layer are
 * rebuilt on pool workers *while* the fresh benchmarks' analyses
 * proceed (async cache regeneration). Ordered commits keep each
 * benchmark's checkpoint journal serialized exactly as in a
 * single-benchmark run: a campaign killed mid-flight leaves verified
 * caches for every completed benchmark and a resumable checkpoint for
 * the in-flight one. Because frames simulate cold and clustering is
 * thread-count-invariant, the per-benchmark numbers in the report are
 * bit-identical to the single-benchmark drivers at any MEGSIM_THREADS.
 *
 * Per-benchmark results land under `campaign.<alias>.*` in the
 * process stats registry, suite aggregates under `campaign.suite.*`.
 */

#ifndef MSIM_BATCH_CAMPAIGN_HH
#define MSIM_BATCH_CAMPAIGN_HH

#include <memory>
#include <string>
#include <vector>

#include "batch/report.hh"
#include "core/megsim.hh"
#include "resilience/expected.hh"

namespace msim::batch
{

struct CampaignConfig
{
    /** Benchmark aliases to run; empty = the full Table II suite. */
    std::vector<std::string> benches;
    /** Empty disables the disk cache (and checkpointing with it). */
    std::string cacheDir = "out/cache";
    double scale = 1.0;
    /** Truncate every benchmark to this many frames (0 = full). */
    std::size_t frameLimit = 0;
    megsim::MegsimConfig megsim;

    /**
     * The evaluation defaults shared with the bench drivers (same
     * k-means seed), plus MEGSIM_FRAME_LIMIT / MEGSIM_SCALE /
     * MEGSIM_CACHE_DIR from the environment.
     */
    static CampaignConfig fromEnv();
};

/**
 * Analyze one benchmark whose ground truth is available (cached,
 * regenerated or installed) and fold it into a report row. Shared by
 * the in-process Campaign and the supervised sched::Scheduler so both
 * runners produce bit-identical rows from identical frames.
 */
BenchmarkReport analyzeBenchmark(const std::string &alias,
                                 megsim::BenchmarkData &data,
                                 const megsim::MegsimConfig &config);

/**
 * One benchmark of a suite run, loaded the same way by the in-process
 * Campaign and by each request of the supervised sched::Scheduler.
 * Held by pointer: data refers to scene.
 */
struct SuiteBench
{
    std::string alias;
    gfx::SceneTrace scene;
    std::unique_ptr<megsim::BenchmarkData> data;
    /** The report row's ground-truth provenance (BenchmarkReport). */
    std::string cacheStatus = "built";
    std::size_t resumedFrames = 0;

    /**
     * Probe the ground-truth caches and record the outcome: "fresh"
     * when both loaded, else "rebuilt" (stale or corrupt) or "built"
     * (absent). True when the ground truth must be regenerated.
     */
    bool needsGroundTruth();

    /** analyzeBenchmark() of this benchmark, with its provenance. */
    BenchmarkReport analyze(const megsim::MegsimConfig &config);
};

/**
 * Compose the scene of every alias in @p aliases (empty = the full
 * Table II suite) at @p config's scale and frame limit, keyed for
 * @p config's cache under the evaluation GPU profile; the keys are
 * hashed in one pool job. An unknown alias fails the whole suite
 * before any simulation work starts.
 */
resilience::Expected<std::vector<std::unique_ptr<SuiteBench>>>
loadSuite(const CampaignConfig &config,
          const std::vector<std::string> &aliases);

/**
 * Where a suite run started: the wall clock and the pool's busy and
 * job counters, read from the current (possibly per-request) stats
 * registry.
 */
struct RunStart
{
    double wallSeconds = 0.0;
    double poolBusySeconds = 0.0;
    double poolJobSeconds = 0.0;

    static RunStart now();
};

/**
 * Complete @p report once its rows are in: thread count, aggregates,
 * wall time and pool utilization since @p start, then
 * publishCampaignStats().
 */
void finishReport(CampaignReport &report, const RunStart &start);

/** Publish campaign.<alias>.* / campaign.suite.* stats. */
void publishCampaignStats(const CampaignReport &report);

class Campaign
{
  public:
    explicit Campaign(CampaignConfig config);
    ~Campaign();

    /**
     * Run the whole suite through the shared pool. Returns the
     * completed report (aggregates included) or the first structured
     * error (unknown alias, failed ground-truth frame). The report is
     * NOT written to disk — callers pick the path and call
     * CampaignReport::save().
     */
    resilience::Expected<CampaignReport> run();

  private:
    struct Item;

    CampaignConfig config_;
    std::vector<std::unique_ptr<Item>> items_;
};

} // namespace msim::batch

#endif // MSIM_BATCH_CAMPAIGN_HH
