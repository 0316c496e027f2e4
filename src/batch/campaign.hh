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
 * the in-process Campaign and the supervised serve::Supervisor so
 * both runners produce bit-identical rows from identical frames.
 */
BenchmarkReport analyzeBenchmark(const std::string &alias,
                                 megsim::BenchmarkData &data,
                                 const megsim::MegsimConfig &config);

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

    BenchmarkReport analyze(Item &item);

    CampaignConfig config_;
    std::vector<std::unique_ptr<Item>> items_;
};

} // namespace msim::batch

#endif // MSIM_BATCH_CAMPAIGN_HH
