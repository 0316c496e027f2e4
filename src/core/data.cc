#include "core/megsim.hh"

#include <cstdio>
#include <filesystem>

#include "exec/pool.hh"
#include "gpusim/scene_binding.hh"
#include "gpusim/timing_simulator.hh"
#include "obs/attrib.hh"
#include "obs/profile.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "resilience/artifact.hh"
#include "resilience/checkpoint.hh"
#include "resilience/fault.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "util/csv.hh"

namespace msim::megsim
{

namespace
{

/** Cache/checkpoint artifact format generation. */
constexpr const char *kCacheVersion = "v4";

void
createCacheDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        sim::warn("cannot create cache directory '%s': %s",
                  dir.c_str(), ec.message().c_str());
}

obs::Scalar &
regeneratedCounter()
{
    return obs::processRegistry().scalar(
        "resilience.cache.regenerated",
        "cache artifacts regenerated after corruption");
}

} // namespace

std::vector<std::string>
activityHeader(const gfx::SceneTrace &scene)
{
    std::vector<std::string> header = {"frame", "primitives",
                                       "vertices", "fragments"};
    for (std::size_t c = 0; c < scene.numVertexShaders(); ++c)
        header.push_back("vs" + std::to_string(c));
    for (std::size_t c = 0; c < scene.numFragmentShaders(); ++c)
        header.push_back("fs" + std::to_string(c));
    return header;
}

std::vector<double>
activityToRow(const gpusim::FrameActivity &act)
{
    std::vector<double> row = {
        static_cast<double>(act.frameIndex),
        static_cast<double>(act.primitives),
        static_cast<double>(act.verticesShaded),
        static_cast<double>(act.fragmentsShaded),
    };
    for (std::uint64_t v : act.vsCounts)
        row.push_back(static_cast<double>(v));
    for (std::uint64_t v : act.fsCounts)
        row.push_back(static_cast<double>(v));
    return row;
}

gpusim::FrameActivity
activityFromRow(const std::vector<double> &row, std::size_t vsShaders,
                std::size_t fsShaders)
{
    gpusim::FrameActivity act;
    act.frameIndex = static_cast<std::uint32_t>(row[0]);
    act.primitives = static_cast<std::uint64_t>(row[1]);
    act.verticesShaded = static_cast<std::uint64_t>(row[2]);
    act.fragmentsShaded = static_cast<std::uint64_t>(row[3]);
    for (std::size_t c = 0; c < vsShaders; ++c)
        act.vsCounts.push_back(
            static_cast<std::uint64_t>(row[4 + c]));
    for (std::size_t c = 0; c < fsShaders; ++c)
        act.fsCounts.push_back(
            static_cast<std::uint64_t>(row[4 + vsShaders + c]));
    return act;
}

BenchmarkData::BenchmarkData(const gfx::SceneTrace &scene,
                             const gpusim::GpuConfig &config,
                             std::string cacheDirectory)
    : scene_(&scene), config_(config),
      cacheDir_(std::move(cacheDirectory))
{
}

std::uint64_t
BenchmarkData::cacheKey() const
{
    std::call_once(keyOnce_, [this] {
        key_ = sim::hashMix(scene_->contentHash(), config_.fingerprint());
    });
    return key_;
}

std::string
BenchmarkData::cachePath(const std::string &kind) const
{
    return checkpointStem() + "_" + kind + ".csv";
}

std::string
BenchmarkData::checkpointStem() const
{
    char keyHex[24];
    std::snprintf(keyHex, sizeof(keyHex), "%016llx",
                  static_cast<unsigned long long>(cacheKey()));
    const std::string name =
        scene_->name.empty() ? "scene" : scene_->name;
    return cacheDir_ + "/" + name + "_" +
           std::to_string(scene_->numFrames()) + "_" + kCacheVersion +
           "_" + keyHex;
}

CacheProbe
BenchmarkData::loadActivityCache()
{
    obs::AttribScope loadScope(obs::HostDomain::Load);
    obs::TimelineRecorder::Span span("cache.load", 0,
                                     scene_->name + ":activity");
    auto loaded = resilience::readCsvArtifact(cachePath("activity"),
                                              cacheKey(), "activity");
    if (!loaded.ok()) {
        if (loaded.error().code == resilience::Errc::NotFound)
            return CacheProbe::Missing;
        ++regeneratedCounter();
        return CacheProbe::Invalid;
    }
    const util::CsvTable &table = *loaded;
    const std::size_t vs = scene_->numVertexShaders();
    const std::size_t fs = scene_->numFragmentShaders();
    if (table.header.size() != 4 + vs + fs ||
        table.rows.size() != scene_->numFrames())
        return CacheProbe::Invalid;

    activities_.clear();
    activities_.reserve(table.rows.size());
    for (const std::vector<double> &row : table.rows)
        activities_.push_back(activityFromRow(row, vs, fs));
    return CacheProbe::Loaded;
}

resilience::Expected<void>
BenchmarkData::storeActivityCache() const
{
    obs::AttribScope loadScope(obs::HostDomain::Load);
    obs::TimelineRecorder::Span span("cache.store", 0,
                                     scene_->name + ":activity");
    util::CsvTable table;
    table.header = activityHeader(*scene_);
    for (const gpusim::FrameActivity &act : activities_)
        table.rows.push_back(activityToRow(act));
    return resilience::writeCsvArtifact(cachePath("activity"), table,
                                        cacheKey(), "activity");
}

CacheProbe
BenchmarkData::loadStatsCache()
{
    obs::AttribScope loadScope(obs::HostDomain::Load);
    obs::TimelineRecorder::Span span("cache.load", 0,
                                     scene_->name + ":stats");
    auto loaded =
        resilience::readCsvArtifact(cachePath("stats"), cacheKey(),
                                    "stats");
    if (!loaded.ok()) {
        if (loaded.error().code == resilience::Errc::NotFound)
            return CacheProbe::Missing;
        ++regeneratedCounter();
        return CacheProbe::Invalid;
    }
    const util::CsvTable &table = *loaded;
    if (table.header != gpusim::FrameStats::csvHeader() ||
        table.rows.size() != scene_->numFrames())
        return CacheProbe::Invalid;
    stats_.clear();
    stats_.reserve(table.rows.size());
    for (const std::vector<double> &row : table.rows)
        stats_.push_back(gpusim::FrameStats::fromCsvRow(row));
    return CacheProbe::Loaded;
}

CacheProbe
BenchmarkData::probeCaches()
{
    if (complete())
        return CacheProbe::Loaded;
    if (cacheDir_.empty())
        return CacheProbe::Missing;
    const CacheProbe stats = loadStatsCache();
    const CacheProbe activity = loadActivityCache();
    if (stats == CacheProbe::Loaded &&
        activity == CacheProbe::Loaded) {
        haveStats_ = true;
        haveActivities_ = true;
        return CacheProbe::Loaded;
    }
    if (stats == CacheProbe::Invalid ||
        activity == CacheProbe::Invalid)
        return CacheProbe::Invalid;
    return CacheProbe::Missing;
}

resilience::Expected<void>
BenchmarkData::storeStatsCache() const
{
    obs::AttribScope loadScope(obs::HostDomain::Load);
    obs::TimelineRecorder::Span span("cache.store", 0,
                                     scene_->name + ":stats");
    util::CsvTable table;
    table.header = gpusim::FrameStats::csvHeader();
    for (const gpusim::FrameStats &s : stats_)
        table.rows.push_back(s.toCsvRow());
    return resilience::writeCsvArtifact(cachePath("stats"), table,
                                        cacheKey(), "stats");
}

resilience::Expected<void>
BenchmarkData::installGroundTruth(
    std::vector<gpusim::FrameStats> stats,
    std::vector<gpusim::FrameActivity> activities)
{
    if (stats.size() != scene_->numFrames() ||
        activities.size() != scene_->numFrames())
        return resilience::errorf(
            resilience::Errc::BadFormat,
            "'%s': installing %zu stats / %zu activity rows over "
            "%zu frames",
            scene_->name.c_str(), stats.size(), activities.size(),
            scene_->numFrames());
    stats_ = std::move(stats);
    activities_ = std::move(activities);
    haveStats_ = true;
    haveActivities_ = true;
    if (cacheDir_.empty())
        return {};
    createCacheDir(cacheDir_);
    auto storedStats = storeStatsCache();
    auto storedActs = storeActivityCache();
    if (!storedStats.ok())
        return storedStats;
    return storedActs;
}

const std::vector<gpusim::FrameActivity> &
BenchmarkData::activities()
{
    if (haveActivities_)
        return activities_;
    if (!cacheDir_.empty() &&
        loadActivityCache() == CacheProbe::Loaded) {
        haveActivities_ = true;
        return activities_;
    }

    obs::PhaseProfiler::Scoped scope(obs::PhaseProfiler::global(),
                                     "functional");
    exec::Pool &pool = exec::Pool::global();
    gpusim::SceneBinding binding(*scene_);
    const std::size_t total = scene_->numFrames();
    // One simulator per worker, built lazily on that worker's first
    // frame; every frame simulates cold, so which worker ran it does
    // not affect the result.
    std::vector<std::unique_ptr<gpusim::FunctionalSimulator>> sims(
        pool.workers());
    activities_.assign(total, gpusim::FrameActivity{});
    obs::Heartbeat heartbeat(total, "functional " + scene_->name);
    std::size_t done = 0;
    auto pass = pool.parallelMapOrdered<gpusim::FrameActivity>(
        total,
        [&](std::size_t f, std::size_t w)
            -> resilience::Expected<gpusim::FrameActivity> {
            obs::TimelineRecorder::Span span("func.frame", f);
            if (!sims[w])
                sims[w] =
                    std::make_unique<gpusim::FunctionalSimulator>(
                        config_, binding);
            return sims[w]->simulate(scene_->frames[f]);
        },
        [&](std::size_t f, gpusim::FrameActivity &&act) {
            activities_[f] = std::move(act);
            heartbeat.tick(++done);
        });
    if (!pass.ok())
        sim::fatal("functional pass failed: %s",
                   pass.error().message.c_str());
    heartbeat.finish();
    haveActivities_ = true;
    if (!cacheDir_.empty()) {
        createCacheDir(cacheDir_);
        if (auto stored = storeActivityCache(); !stored.ok())
            sim::warn("activity cache store failed: %s",
                      stored.error().message.c_str());
    }
    return activities_;
}

const std::vector<gpusim::FrameStats> &
BenchmarkData::frameStats()
{
    if (auto ready = ensureFrameStats(); !ready.ok())
        sim::fatal("%s", ready.error().message.c_str());
    return stats_;
}

resilience::Expected<void>
BenchmarkData::ensureFrameStats()
{
    if (haveStats_)
        return {};
    if (!cacheDir_.empty() && loadStatsCache() == CacheProbe::Loaded) {
        haveStats_ = true;
        return {};
    }

    // The expensive pass: cycle-level simulation of every frame,
    // factored into GroundTruthPass so batch campaigns can splice many
    // benchmarks' frames into one shared pool job. Frames fan out
    // across the pool (thread-local simulators, cold per frame); the
    // commit lambda runs on the calling thread in frame order, which
    // keeps checkpoint journal appends serialized and the files
    // bit-identical to a serial run.
    obs::PhaseProfiler::Scoped scope(obs::PhaseProfiler::global(),
                                     "ground-truth");
    exec::Pool &pool = exec::Pool::global();
    GroundTruthPass gt(*this, pool.workers());
    auto pass = pool.parallelMapOrdered<GroundTruthFrame>(
        gt.remaining(),
        [&](std::size_t i, std::size_t w) {
            return gt.produce(i, w);
        },
        [&](std::size_t i, GroundTruthFrame &&frame) {
            gt.commit(i, std::move(frame));
        });
    if (!pass.ok()) {
        // The journal already holds the frames committed before the
        // failure; a rerun resumes from there instead of starting
        // over.
        return resilience::errorf(pass.error().code,
                                  "ground-truth pass of '%s' failed: %s",
                                  scene_->name.c_str(),
                                  pass.error().message.c_str());
    }
    gt.finish();
    return {};
}

GroundTruthPass::GroundTruthPass(BenchmarkData &data,
                                 std::size_t workers)
    : data_(&data), total_(data.scene_->numFrames()),
      watchdog_(resilience::WatchdogConfig::fromEnv())
{
    const std::size_t vs = data.scene_->numVertexShaders();
    const std::size_t fs = data.scene_->numFragmentShaders();
    stats_.reserve(total_);
    acts_.reserve(total_);
    if (!data.cacheDir_.empty()) {
        createCacheDir(data.cacheDir_);
        ckpt_ = std::make_unique<resilience::Checkpoint>(
            data.checkpointStem(), data.cacheKey(), total_,
            gpusim::FrameStats::csvHeader().size(), 4 + vs + fs);
        start_ = ckpt_->resume();
        for (std::size_t f = 0; f < start_; ++f) {
            stats_.push_back(gpusim::FrameStats::fromCsvRow(
                ckpt_->statsRows()[f]));
            acts_.push_back(
                activityFromRow(ckpt_->activityRows()[f], vs, fs));
        }
    }
    binding_ =
        std::make_unique<gpusim::SceneBinding>(*data.scene_);
    sims_.resize(workers ? workers : 1);
    heartbeat_ = std::make_unique<obs::Heartbeat>(
        total_, "ground truth " + data.scene_->name);
}

// Out of line so the unique_ptr members see complete types; an
// unfinished pass keeps its checkpoint for the next resume.
GroundTruthPass::~GroundTruthPass() = default;

resilience::Expected<GroundTruthFrame>
simulateGuarded(gpusim::TimingSimulator &sim,
                const gfx::SceneTrace &scene, std::size_t frame,
                const resilience::WatchdogConfig &watchdog)
{
    if (resilience::FaultInjector::global().hangFrame(frame))
        return resilience::errorf(resilience::Errc::FrameTimeout,
                                  "frame %zu hung (injected)", frame);
    GroundTruthFrame out;
    out.stats = sim.simulate(scene.frames[frame], &out.activity);
    if (watchdog.cycleBudget && out.stats.cycles > watchdog.cycleBudget)
        return resilience::errorf(
            resilience::Errc::FrameTimeout,
            "frame %zu blew the cycle budget (%llu > %llu)", frame,
            static_cast<unsigned long long>(out.stats.cycles),
            static_cast<unsigned long long>(watchdog.cycleBudget));
    if (watchdog.wallBudgetSeconds > 0.0 &&
        sim.lastFrameWallSeconds() > watchdog.wallBudgetSeconds)
        return resilience::errorf(
            resilience::Errc::FrameTimeout,
            "frame %zu blew the wall budget (%.3fs > %.3fs)", frame,
            sim.lastFrameWallSeconds(), watchdog.wallBudgetSeconds);
    return out;
}

resilience::Expected<GroundTruthFrame>
GroundTruthPass::produce(std::size_t i, std::size_t w)
{
    const std::size_t f = start_ + i;
    obs::TimelineRecorder::Span span("gt.frame", f,
                                     data_->scene_->name);
    if (!sims_[w])
        sims_[w] = std::make_unique<gpusim::TimingSimulator>(
            data_->config_, *binding_);
    return simulateGuarded(*sims_[w], *data_->scene_, f, watchdog_);
}

void
GroundTruthPass::commit(std::size_t i, GroundTruthFrame &&frame)
{
    stats_.push_back(std::move(frame.stats));
    acts_.push_back(std::move(frame.activity));
    if (ckpt_) {
        obs::AttribScope loadScope(obs::HostDomain::Load);
        obs::TimelineRecorder::Span span("ckpt.commit", start_ + i);
        ckpt_->append(stats_.back().toCsvRow(),
                      activityToRow(acts_.back()));
    }
    resilience::FaultInjector::global().maybeKillAfterFrame(start_ +
                                                            i);
    heartbeat_->tick(stats_.size());
    ++committed_;
}

void
GroundTruthPass::finish()
{
    heartbeat_->finish();
    if (start_ + committed_ != total_)
        sim::fatal("ground-truth pass of '%s' finished at %zu of %zu "
                   "frames",
                   data_->scene_->name.c_str(), start_ + committed_,
                   total_);
    data_->stats_ = std::move(stats_);
    data_->haveStats_ = true;
    if (!data_->haveActivities_) {
        data_->activities_ = std::move(acts_);
        data_->haveActivities_ = true;
    }
    // Store the caches FIRST and only discard the journal once both
    // stores verifiably landed: a run killed between the stores (the
    // `cache.store` kill site) or a failed store must leave the
    // journal behind, so the next run resumes every committed frame
    // instead of re-simulating the finished pass.
    bool stored = true;
    if (!data_->cacheDir_.empty()) {
        createCacheDir(data_->cacheDir_);
        auto stats = data_->storeStatsCache();
        resilience::FaultInjector::global().maybeKillAtSite(
            "cache.store");
        auto acts = data_->storeActivityCache();
        stored = stats.ok() && acts.ok();
        if (!stored)
            sim::warn("ground-truth cache store of '%s' failed (%s); "
                      "keeping the checkpoint journal",
                      data_->scene_->name.c_str(),
                      (!stats.ok() ? stats : acts)
                          .error()
                          .message.c_str());
    }
    if (ckpt_) {
        resilience::FaultInjector::global().maybeKillAtSite(
            "ckpt.discard");
        if (stored)
            ckpt_->discard();
    }
}

std::vector<double>
BenchmarkData::metric(gpusim::Metric metric)
{
    const std::vector<gpusim::FrameStats> &all = frameStats();
    std::vector<double> values;
    values.reserve(all.size());
    for (const gpusim::FrameStats &s : all)
        values.push_back(gpusim::metricValue(s, metric));
    return values;
}

} // namespace msim::megsim
