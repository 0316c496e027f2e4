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
#include "resilience/checkpoint.hh"
#include "resilience/fault.hh"
#include "sim/logging.hh"
#include "sim/random.hh"

namespace msim::megsim
{

namespace
{

/** Cache/checkpoint format generation (v5: the journals are the cache). */
constexpr const char *kCacheVersion = "v5";

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
cacheCounter(const char *name, const char *desc)
{
    return obs::processRegistry().scalar(
        std::string("resilience.cache.") + name, desc);
}

resilience::Rows
statsRows(const std::vector<gpusim::FrameStats> &stats)
{
    resilience::Rows rows;
    rows.reserve(stats.size());
    for (const gpusim::FrameStats &s : stats)
        rows.push_back(s.toCsvRow());
    return rows;
}

resilience::Rows
activityRows(const std::vector<gpusim::FrameActivity> &activities)
{
    resilience::Rows rows;
    rows.reserve(activities.size());
    for (const gpusim::FrameActivity &act : activities)
        rows.push_back(activityToRow(act));
    return rows;
}

} // namespace

std::size_t
activityColumns(const gfx::SceneTrace &scene)
{
    return 4 + scene.numVertexShaders() + scene.numFragmentShaders();
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
    return checkpoint().journalPath(kind);
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

resilience::Checkpoint
BenchmarkData::checkpoint() const
{
    return resilience::Checkpoint(
        checkpointStem(), cacheKey(), scene_->numFrames(),
        gpusim::FrameStats::csvHeader().size(),
        activityColumns(*scene_), 0);
}

void
BenchmarkData::loadActivities(const resilience::Rows &rows)
{
    const std::size_t vs = scene_->numVertexShaders();
    const std::size_t fs = scene_->numFragmentShaders();
    activities_.clear();
    activities_.reserve(rows.size());
    for (const std::vector<double> &row : rows)
        activities_.push_back(activityFromRow(row, vs, fs));
    haveActivities_ = true;
}

CacheProbe
BenchmarkData::probeCaches()
{
    if (complete())
        return CacheProbe::Loaded;
    if (cacheDir_.empty())
        return CacheProbe::Missing;
    obs::Span span("cache.load", obs::HostDomain::Load, 0, scene_->name);
    auto found = checkpoint().read();
    if (!found.ok() &&
        found.error().code == resilience::Errc::NotFound)
        return CacheProbe::Missing;
    if (!found.ok() || found->corrupt()) {
        // The pass rebuilds the cache, resuming from the valid lines
        // before the first bad one.
        if (!found.ok()) {
            sim::warn("ground-truth cache of '%s' refused: %s",
                      scene_->name.c_str(),
                      found.error().message.c_str());
        } else {
            const bool stats = found->stats.badLine != 0;
            const resilience::JournalRows &bad =
                stats ? found->stats : found->activity;
            sim::warn("ground-truth cache '%s': line %zu %s",
                      cachePath(stats ? "stats" : "activity").c_str(),
                      bad.badLine, bad.problem);
        }
        if (found.ok() ||
            found.error().code == resilience::Errc::BadFingerprint)
            ++cacheCounter("corrupt_detected",
                           "ground-truth caches refused as corrupt");
        ++cacheCounter("regenerated",
                       "ground-truth caches rebuilt after corruption");
        return CacheProbe::Invalid;
    }
    const std::size_t total = scene_->numFrames();
    if (found->stats.rows.size() != total ||
        found->activity.rows.size() != total)
        return CacheProbe::Missing;

    stats_.clear();
    stats_.reserve(total);
    for (const std::vector<double> &row : found->stats.rows)
        stats_.push_back(gpusim::FrameStats::fromCsvRow(row));
    haveStats_ = true;
    if (!haveActivities_)
        loadActivities(found->activity.rows);
    return CacheProbe::Loaded;
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
    obs::Span span("cache.store", obs::HostDomain::Load, 0, scene_->name);
    createCacheDir(cacheDir_);
    return checkpoint().write(statsRows(stats_),
                              activityRows(activities_));
}

const std::vector<gpusim::FrameActivity> &
BenchmarkData::activities()
{
    if (haveActivities_)
        return activities_;
    // A ground-truth pass that has journaled frames keeps its
    // checkpoint: storing this pass must not cost it that progress.
    bool groundTruthJournaled = false;
    if (!cacheDir_.empty()) {
        obs::Span span("cache.load", obs::HostDomain::Load, 0,
                       scene_->name + ":activity");
        auto found = checkpoint().read();
        if (found.ok() &&
            found->activity.rows.size() == scene_->numFrames()) {
            loadActivities(found->activity.rows);
            return activities_;
        }
        groundTruthJournaled = found.ok() && !found->stats.rows.empty();
    }

    obs::Span passSpan("func.pass", 0, scene_->name);
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
            obs::Span span("func.frame", f);
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
    if (!cacheDir_.empty() && !groundTruthJournaled) {
        // The activity journal under an empty stats journal: a later
        // ground-truth pass resumes from the shorter prefix, 0.
        obs::Span span("cache.store", obs::HostDomain::Load, 0,
                       scene_->name + ":activity");
        createCacheDir(cacheDir_);
        auto stored = checkpoint().write({}, activityRows(activities_));
        if (!stored.ok())
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
    if (probeCaches() == CacheProbe::Loaded)
        return {};

    // The expensive pass: cycle-level simulation of every frame,
    // factored into GroundTruthPass so batch campaigns can splice many
    // benchmarks' frames into one shared pool job. Frames fan out
    // across the pool (thread-local simulators, cold per frame); the
    // commit lambda runs on the calling thread in frame order, which
    // keeps checkpoint journal appends serialized and the files
    // bit-identical to a serial run.
    obs::Span span("gt.pass", 0, scene_->name);
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
            data.checkpoint());
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
    obs::Span span("gt.frame", f, data_->scene_->name);
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
        obs::Span span("ckpt.commit", obs::HostDomain::Load, start_ + i);
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
    // The journals stay: complete, they are the ground-truth cache.
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
