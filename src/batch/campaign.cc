#include "batch/campaign.hh"

#include <cstdlib>

#include "exec/pool.hh"
#include "obs/attrib.hh"
#include "obs/profile.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "workloads/workloads.hh"

namespace msim::batch
{

namespace
{

double
counterValue(const char *name)
{
    const obs::Stat *stat = obs::processRegistry().find(name);
    return stat ? stat->value() : 0.0;
}

} // namespace

/** One benchmark moving through the campaign. */
struct Campaign::Item
{
    explicit Item(std::unique_ptr<SuiteBench> b) : bench(std::move(b)) {}

    std::unique_ptr<SuiteBench> bench;
    /** Non-null while the benchmark's ground truth is in flight. */
    std::unique_ptr<megsim::GroundTruthPass> pass;
    /** First global frame index of this benchmark in the shared job. */
    std::size_t firstUnit = 0;
    BenchmarkReport report;
    bool analyzed = false;
};

CampaignConfig
CampaignConfig::fromEnv()
{
    CampaignConfig config;
    // Same selector seed as the bench drivers, so campaign.json rows
    // are comparable (and bit-identical) to table3/fig7 output.
    config.megsim.selector.kmeans.seed = 0x4d4547; // "MEG"
    if (const char *env = std::getenv("MEGSIM_CACHE_DIR"))
        config.cacheDir = env;
    config.frameLimit = workloads::frameLimitFromEnv();
    config.scale = workloads::scaleFromEnv();
    return config;
}

Campaign::Campaign(CampaignConfig config) : config_(std::move(config))
{
    if (config_.benches.empty())
        config_.benches = workloads::benchmarkNames();
}

Campaign::~Campaign() = default;

BenchmarkReport
analyzeBenchmark(const std::string &alias,
                 megsim::BenchmarkData &data,
                 const megsim::MegsimConfig &config)
{
    const double t0 = obs::wallSeconds();
    obs::TimelineRecorder::Span span("campaign.analyze", 0, alias);
    megsim::MegsimPipeline pipeline(data, config);
    const megsim::MegsimRun run = pipeline.run();

    BenchmarkReport report;
    report.alias = alias;
    report.frames = run.numFrames;
    report.chosenK = run.selection.chosen().k;
    report.representatives = run.numRepresentatives();
    report.reduction = run.reductionFactor();
    for (std::size_t m = 0; m < kNumMetrics; ++m)
        report.errorPercent[m] =
            pipeline.errorPercent(run, kMetrics[m]);
    report.wallSeconds = obs::wallSeconds() - t0;
    return report;
}

bool
SuiteBench::needsGroundTruth()
{
    switch (data->probeCaches()) {
      case megsim::CacheProbe::Loaded:
        cacheStatus = "fresh";
        return false;
      case megsim::CacheProbe::Invalid:
        cacheStatus = "rebuilt";
        return true;
      case megsim::CacheProbe::Missing:
        break;
    }
    cacheStatus = "built";
    return true;
}

BenchmarkReport
SuiteBench::analyze(const megsim::MegsimConfig &config)
{
    BenchmarkReport report = analyzeBenchmark(alias, *data, config);
    report.resumedFrames = resumedFrames;
    report.cacheStatus = cacheStatus;
    return report;
}

resilience::Expected<std::vector<std::unique_ptr<SuiteBench>>>
loadSuite(const CampaignConfig &config,
          const std::vector<std::string> &aliases)
{
    obs::AttribScope loadScope(obs::HostDomain::Load);
    std::vector<std::unique_ptr<SuiteBench>> suite;
    for (const std::string &alias :
         aliases.empty() ? workloads::benchmarkNames() : aliases) {
        auto built = workloads::tryBuildBenchmark(
            alias, config.scale, config.frameLimit);
        if (!built.ok())
            return built.error();
        auto bench = std::make_unique<SuiteBench>();
        bench->alias = alias;
        bench->scene = std::move(*built);
        bench->data = std::make_unique<megsim::BenchmarkData>(
            bench->scene, gpusim::GpuConfig::evaluationScaled(),
            config.cacheDir);
        suite.push_back(std::move(bench));
    }
    return suite;
}

RunStart
RunStart::now()
{
    RunStart start;
    start.wallSeconds = obs::wallSeconds();
    start.poolBusySeconds = counterValue("exec.pool.busy_seconds");
    start.poolJobSeconds = counterValue("exec.pool.job_seconds");
    return start;
}

void
finishReport(CampaignReport &report, const RunStart &start)
{
    exec::Pool &pool = exec::Pool::global();
    report.threads = pool.workers();
    report.computeAggregates();
    report.wallSeconds = obs::wallSeconds() - start.wallSeconds;

    const double busy =
        counterValue("exec.pool.busy_seconds") - start.poolBusySeconds;
    const double jobSeconds =
        counterValue("exec.pool.job_seconds") - start.poolJobSeconds;
    const double capacity =
        static_cast<double>(pool.workers()) * jobSeconds;
    report.poolUtilization =
        capacity > 0.0
            ? (busy < capacity ? busy / capacity : 1.0)
            : 1.0;

    publishCampaignStats(report);
}

resilience::Expected<CampaignReport>
Campaign::run()
{
    const RunStart start = RunStart::now();
    exec::Pool &pool = exec::Pool::global();
    // Window the caller thread's host-cost attribution over the whole
    // campaign: uncovered time lands in obs.host.other, so the report
    // can state what share of wall time the named domains explain.
    obs::AttribRoot attribRoot;

    // 1. Load every scene up front — an unknown alias fails the whole
    // campaign before any simulation work starts.
    items_.clear();
    {
        obs::TimelineRecorder::Span loadSpan("campaign.load_scenes",
                                             config_.benches.size());
        auto suite = loadSuite(config_, config_.benches);
        if (!suite.ok())
            return suite.error();
        for (std::unique_ptr<SuiteBench> &bench : *suite)
            items_.push_back(std::make_unique<Item>(std::move(bench)));
    }

    // 2. Probe the caches: fresh benchmarks go straight to analysis,
    // the rest get a checkpoint-resuming ground-truth pass.
    std::vector<Item *> fresh;
    std::vector<Item *> regen;
    {
        obs::TimelineRecorder::Span probeSpan("campaign.probe",
                                              items_.size());
        for (auto &item : items_)
            (item->bench->needsGroundTruth() ? regen : fresh)
                .push_back(item.get());
    }

    // 3. The shared job. Item space: one analysis unit per fresh
    // benchmark, then every remaining ground-truth frame of every
    // regenerating benchmark, bench-major. Dynamic chunks let workers
    // drain a short benchmark and flow into the next with no barrier;
    // ordered commits serialize each benchmark's journal appends and
    // finish it (its rows published, its journals left as the cache)
    // the moment its last frame lands, so a killed campaign keeps its
    // completed prefix.
    const std::size_t analysisUnits = fresh.size();
    std::size_t totalUnits = analysisUnits;
    std::vector<Item *> pending;
    for (Item *item : regen) {
        item->pass = std::make_unique<megsim::GroundTruthPass>(
            *item->bench->data, pool.workers());
        item->bench->resumedFrames = item->pass->resumedFrames();
        if (item->pass->remaining() == 0) {
            // The probe missed a cache the resume then read whole (an
            // io.read or cache.corrupt fault with p < 1 fires on one
            // read and not the other). The in-job finish trigger below
            // never fires for a pass with no frames, so publish here.
            item->pass->finish();
            item->pass.reset();
            continue;
        }
        item->firstUnit = totalUnits;
        totalUnits += item->pass->remaining();
        pending.push_back(item);
    }

    struct Unit
    {
        BenchmarkReport report; // analysis units
        megsim::GroundTruthFrame frame;
    };

    // Map a global unit index to the regenerating benchmark owning it.
    auto ownerOf = [&](std::size_t unit) -> Item * {
        Item *owner = nullptr;
        for (Item *item : pending) {
            if (item->firstUnit > unit)
                break;
            owner = item;
        }
        return owner;
    };

    obs::PhaseProfiler::Scoped scope(obs::PhaseProfiler::global(),
                                     "campaign-batch");
    obs::TimelineRecorder::Span jobSpan("campaign.batch",
                                        totalUnits);
    auto job = pool.parallelMapOrdered<Unit>(
        totalUnits,
        [&](std::size_t unit,
            std::size_t w) -> resilience::Expected<Unit> {
            Unit out;
            if (unit < analysisUnits) {
                // Nested pipeline calls degrade to inline serial on
                // this worker — clustering is thread-count-invariant,
                // so the numbers still match a pool-parallel run.
                out.report =
                    fresh[unit]->bench->analyze(config_.megsim);
                return out;
            }
            Item *item = ownerOf(unit);
            auto frame =
                item->pass->produce(unit - item->firstUnit, w);
            if (!frame.ok())
                return frame.error();
            out.frame = std::move(*frame);
            return out;
        },
        [&](std::size_t unit, Unit &&out) {
            if (unit < analysisUnits) {
                fresh[unit]->report = std::move(out.report);
                fresh[unit]->analyzed = true;
                return;
            }
            Item *item = ownerOf(unit);
            item->pass->commit(unit - item->firstUnit,
                               std::move(out.frame));
            if (unit - item->firstUnit + 1 ==
                item->pass->remaining()) {
                item->pass->finish();
                item->pass.reset();
            }
        });
    if (!job.ok())
        return job.error();

    // 4. Regenerated benchmarks analyze at top level, where
    // clustering fans out over the (now idle) pool exactly like the
    // single-benchmark drivers.
    CampaignReport report;
    for (auto &item : items_) {
        if (!item->analyzed) {
            item->report = item->bench->analyze(config_.megsim);
            item->analyzed = true;
        }
        report.benchmarks.push_back(item->report);
    }
    finishReport(report, start);
    return report;
}

void
publishCampaignStats(const CampaignReport &report)
{
    obs::StatsRegistry &registry = obs::processRegistry();
    for (const BenchmarkReport &b : report.benchmarks) {
        obs::StatsGroup group =
            registry.group("campaign." + b.alias);
        group.scalar("frames", "ground-truth frames").set(
            static_cast<double>(b.frames));
        group.scalar("resumed_frames",
                     "frames recovered from a checkpoint")
            .set(static_cast<double>(b.resumedFrames));
        group.scalar("k", "chosen cluster count")
            .set(static_cast<double>(b.chosenK));
        group.scalar("representatives", "simulated representatives")
            .set(static_cast<double>(b.representatives));
        group.scalar("reduction", "frame reduction factor")
            .set(b.reduction);
        group.scalar("wall_seconds", "analysis wall time")
            .set(b.wallSeconds);
        obs::StatsGroup errors = group.group("error");
        for (std::size_t m = 0; m < kNumMetrics; ++m)
            errors.scalar(kMetricKeys[m], "relative error (%)")
                .set(b.errorPercent[m]);
    }
    obs::StatsGroup suite = registry.group("campaign.suite");
    suite.scalar("benchmarks", "benchmarks in the campaign")
        .set(static_cast<double>(report.benchmarks.size()));
    suite.scalar("mean_reduction",
                 "mean per-benchmark reduction factor")
        .set(report.meanReduction);
    suite.scalar("suite_reduction",
                 "total frames / total representatives")
        .set(report.suiteReduction);
    suite.scalar("wall_seconds", "campaign wall time")
        .set(report.wallSeconds);
    suite.scalar("pool_utilization",
                 "busy worker share of pool job time")
        .set(report.poolUtilization);
}

} // namespace msim::batch
