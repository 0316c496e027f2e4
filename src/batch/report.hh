/**
 * @file
 * The campaign's machine-readable accuracy report — the artifact CI
 * gates on. A CampaignReport holds one row per benchmark (chosen k,
 * reduction factor, relative error for the four Fig. 7 metrics, wall
 * time, cache provenance) plus suite-level aggregates, serializes to
 * a versioned `campaign.json` via an atomic write, and parses back
 * bit-for-bit so threshold checks and regression diffs run on exactly
 * the numbers the campaign produced. Thresholds mirror the report
 * shape; checkThresholds() returns human-readable violations,
 * one per breached limit.
 */

#ifndef MSIM_BATCH_REPORT_HH
#define MSIM_BATCH_REPORT_HH

#include <cstddef>
#include <string>
#include <vector>

#include "gpusim/frame_stats.hh"
#include "resilience/expected.hh"
#include "util/json.hh"

namespace msim::batch
{

/** The four reported metrics, in Fig. 7 order. */
constexpr std::size_t kNumMetrics = 4;
extern const gpusim::Metric kMetrics[kNumMetrics];
/** JSON keys of the metrics: "cycles", "dram", "l2", "tile". */
extern const char *const kMetricKeys[kNumMetrics];

struct BenchmarkReport
{
    std::string alias;
    std::size_t frames = 0;
    /** Frames recovered from a checkpoint left by a killed run. */
    std::size_t resumedFrames = 0;
    std::size_t chosenK = 0;
    std::size_t representatives = 0;
    double reduction = 0.0;
    double errorPercent[kNumMetrics] = {};
    double wallSeconds = 0.0;
    /**
     * Ground-truth provenance: "fresh" (served from a verified
     * cache), "rebuilt" (stale/corrupt cache regenerated), "built"
     * (no cache existed).
     */
    std::string cacheStatus = "built";
};

/**
 * A shard the supervised runner gave up on after exhausting its retry
 * cap (poison-shard detection): the campaign completed degraded, with
 * the owning benchmark dropped from the result rows.
 */
struct QuarantinedShard
{
    std::size_t shard = 0;
    std::string bench;
    /** Frame range [begin, end) the shard covered. */
    std::size_t beginFrame = 0;
    std::size_t endFrame = 0;
    std::size_t attempts = 0;
    std::string reason;
};

struct CampaignReport
{
    /**
     * The one report schema. fromJson() refuses every other tag, and
     * a `mem_mode` (campaign or row) other than "exact": those came
     * from the removed sampled cache model. `mem_mode` itself is
     * optional on read.
     */
    static constexpr const char *kSchema = "megsim-campaign-v2";

    std::size_t threads = 0;
    /**
     * Degraded completion: at least one shard was quarantined, its
     * benchmark has no result row, and the CLI exits with the
     * distinct degraded code instead of 0.
     */
    bool degraded = false;
    std::vector<QuarantinedShard> quarantined;
    std::vector<BenchmarkReport> benchmarks;

    // Suite aggregates, derived by computeAggregates().
    double totalFrames = 0.0;
    double totalRepresentatives = 0.0;
    /** Mean of the per-benchmark reduction factors. */
    double meanReduction = 0.0;
    /** totalFrames / totalRepresentatives (the paper's headline). */
    double suiteReduction = 0.0;
    double meanErrorPercent[kNumMetrics] = {};
    double maxErrorPercent[kNumMetrics] = {};
    double wallSeconds = 0.0;
    /** busy worker seconds / (workers * job seconds), in [0, 1]. */
    double poolUtilization = 0.0;

    void computeAggregates();

    util::Json toJson() const;
    static resilience::Expected<CampaignReport>
    fromJson(const util::Json &json);

    /** Atomic write (temp file + rename) of toJson(). */
    resilience::Expected<void> save(const std::string &path) const;
    static resilience::Expected<CampaignReport>
    load(const std::string &path);
};

/**
 * CI gate limits; absent fields stay permissive. Parsing fails closed:
 * an unknown key or a non-number limit is a load error, never a
 * silently disabled gate.
 */
struct Thresholds
{
    static constexpr const char *kSchema = "megsim-thresholds-v1";

    /** Per-benchmark ceiling on each metric's relative error (%). */
    double maxErrorPercent[kNumMetrics];
    /** Per-benchmark floor on the reduction factor. */
    double minReduction = 0.0;
    /** Suite floor on the mean reduction factor. */
    double minMeanReduction = 0.0;

    Thresholds();

    static resilience::Expected<Thresholds>
    fromJson(const util::Json &json);
    static resilience::Expected<Thresholds>
    load(const std::string &path);
};

/**
 * Every limit the report breaches, as ready-to-print lines naming the
 * benchmark, metric, measured value and limit. Empty = gate passes.
 */
std::vector<std::string> checkThresholds(const CampaignReport &report,
                                         const Thresholds &limits);

/**
 * Compare two reports modulo the documented host-side fields —
 * wall_seconds (per-benchmark and suite), pool_utilization, threads,
 * and the cache provenance pair (cache, resumed_frames), all of which
 * legitimately differ between machines, thread counts and cache
 * states. Everything else (per-benchmark frames, k, representatives,
 * reduction, per-metric error; suite totals and error aggregates) must
 * match EXACTLY — the campaign's determinism claim is bit-identity, so
 * no epsilon. Returns ready-to-print difference lines; empty = equal.
 */
std::vector<std::string> diffReports(const CampaignReport &a,
                                     const CampaignReport &b);

} // namespace msim::batch

#endif // MSIM_BATCH_REPORT_HH
