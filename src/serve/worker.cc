#include "serve/worker.hh"

#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "core/megsim.hh"
#include "gpusim/scene_binding.hh"
#include "gpusim/timing_simulator.hh"
#include "resilience/checkpoint.hh"
#include "resilience/fault.hh"
#include "resilience/watchdog.hh"
#include "serve/protocol.hh"
#include "sim/logging.hh"
#include "util/env.hh"
#include "workloads/workloads.hh"

namespace msim::serve
{

using resilience::Errc;
using resilience::errorf;
using resilience::Expected;
using util::Json;

namespace
{

/**
 * Per-benchmark state a worker keeps across shards: the composed
 * scene, the BenchmarkData keying the shard journals, and one
 * TimingSimulator reused frame to frame (frames simulate cold, so
 * reuse does not change the rows).
 */
struct BenchState
{
    gfx::SceneTrace scene;
    std::unique_ptr<megsim::BenchmarkData> data;
    std::unique_ptr<gpusim::SceneBinding> binding;
    std::unique_ptr<gpusim::TimingSimulator> sim;
};

Expected<BenchState *>
benchState(std::map<std::string, std::unique_ptr<BenchState>> &cache,
           const std::string &alias,
           const batch::CampaignConfig &config)
{
    auto it = cache.find(alias);
    if (it != cache.end())
        return it->second.get();
    auto built = workloads::tryBuildBenchmark(alias, config.scale,
                                              config.frameLimit);
    if (!built.ok())
        return built.error();
    auto state = std::make_unique<BenchState>();
    state->scene = std::move(*built);
    state->data = std::make_unique<megsim::BenchmarkData>(
        state->scene, gpusim::GpuConfig::evaluationScaled(),
        config.cacheDir);
    state->binding =
        std::make_unique<gpusim::SceneBinding>(state->scene);
    state->sim = std::make_unique<gpusim::TimingSimulator>(
        state->data->config(), *state->binding);
    BenchState *out = state.get();
    cache.emplace(alias, std::move(state));
    return out;
}

Json
rowsToJson(const std::vector<std::vector<double>> &rows)
{
    Json out = Json::array();
    for (const std::vector<double> &row : rows) {
        Json r = Json::array();
        for (double v : row)
            r.push(v);
        out.push(std::move(r));
    }
    return out;
}

/**
 * Simulate the shard, journaling each frame. Returns the full shard's
 * stats/activity rows (resumed + fresh) through the out-params, and
 * the count of journal-recovered frames.
 */
Expected<std::size_t>
runShard(BenchState &bench, const ShardSpec &spec,
         const resilience::WatchdogConfig &watchdog,
         std::vector<std::vector<double>> &statsRows,
         std::vector<std::vector<double>> &activityRows)
{
    const gfx::SceneTrace &scene = bench.scene;
    if (spec.endFrame > scene.numFrames())
        return errorf(Errc::BadFormat,
                      "shard %zu range [%zu, %zu) outside the "
                      "%zu-frame scene",
                      spec.id, spec.beginFrame, spec.endFrame,
                      scene.numFrames());

    const std::size_t frames = spec.endFrame - spec.beginFrame;
    // The cache directory may not exist yet on a fresh store — the
    // in-process pass creates it lazily, but the shard journal needs
    // it NOW or crash recovery silently degrades to restart-always.
    {
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(bench.data->checkpointStem())
                .parent_path(),
            ec);
    }
    resilience::Checkpoint ckpt =
        shardCheckpoint(*bench.data, spec.beginFrame, spec.endFrame);
    const std::size_t resumed = ckpt.resume();
    statsRows = ckpt.statsRows();
    activityRows = ckpt.activityRows();

    resilience::FaultInjector &faults =
        resilience::FaultInjector::global();
    // Roll the worker-fault dice once per shard attempt. The dice are
    // a pure hash of (seed, shard, attempt), so a respawned worker
    // re-rolls the same outcome — the recovery path is deterministic.
    const bool killAfterCommit = faults.killWorker(spec.id,
                                                   spec.attempt);
    if (faults.hangWorker(spec.id, spec.attempt)) {
        sim::warn("fault worker.hang: shard %zu attempt %zu stalls",
                  spec.id, spec.attempt);
        for (;;)
            ::sleep(3600); // until the fleet's deadline SIGKILL
    }

    // Optional per-shard think time before simulating: the CLI tests
    // set it to keep a request in flight while another arrives; it is
    // 0 (free) everywhere else.
    {
        static const double thinkMs = util::numberFromEnv(
            "MEGSIM_SHARD_THINK_MS", util::NumberRule::Whole, 0.0,
            "no think time");
        if (thinkMs > 0.0 && resumed < frames)
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::milli>(thinkMs));
    }

    for (std::size_t i = resumed; i < frames; ++i) {
        Expected<megsim::GroundTruthFrame> frame =
            megsim::simulateGuarded(*bench.sim, scene,
                                    spec.beginFrame + i, watchdog);
        if (!frame.ok())
            return frame.error();
        statsRows.push_back(frame->stats.toCsvRow());
        activityRows.push_back(megsim::activityToRow(frame->activity));
        ckpt.append(statsRows.back(), activityRows.back());
        if (killAfterCommit && i == resumed) {
            // Die AFTER the first fresh frame is journaled: the next
            // attempt must resume it, which is exactly what the
            // supervision tests assert.
            sim::warn("fault worker.kill: shard %zu attempt %zu dies",
                      spec.id, spec.attempt);
            std::raise(SIGKILL);
        }
    }
    return resumed;
}

} // namespace

int
workerMain(int reqFd, int repFd, const batch::CampaignConfig &config)
{
    std::signal(SIGPIPE, SIG_IGN);
    const resilience::WatchdogConfig watchdog =
        resilience::WatchdogConfig::fromEnv();
    std::map<std::string, std::unique_ptr<BenchState>> benches;

    for (;;) {
        Expected<Json> request = readMessage(reqFd, -1.0);
        if (!request.ok()) {
            // EOF on the request pipe is the shutdown signal.
            if (request.error().code == Errc::Truncated)
                return 0;
            sim::warn("worker: bad request: %s",
                      request.error().message.c_str());
            return 1;
        }
        const Json *type = request->find("type");
        if (type && type->asString() == "shutdown")
            return 0;

        Expected<ShardSpec> spec = parseShardRequest(*request);
        Json reply = Json::object();
        reply.set("type", "shard_result");
        if (!spec.ok()) {
            reply.set("shard", static_cast<std::size_t>(0));
            reply.set("status", "error");
            reply.set("message", spec.error().message);
            if (!writeMessage(repFd, reply).ok())
                return 1;
            continue;
        }

        reply.set("shard", spec->id);
        Expected<BenchState *> bench =
            benchState(benches, spec->bench, config);
        if (!bench.ok()) {
            reply.set("status", "error");
            reply.set("message", bench.error().message);
            if (!writeMessage(repFd, reply).ok())
                return 1;
            continue;
        }

        std::vector<std::vector<double>> statsRows;
        std::vector<std::vector<double>> activityRows;
        Expected<std::size_t> resumed = runShard(
            **bench, *spec, watchdog, statsRows, activityRows);
        if (!resumed.ok()) {
            reply.set("status", "error");
            reply.set("message", resumed.error().message);
        } else {
            reply.set("status", "ok");
            reply.set("resumed", *resumed);
            reply.set("stats", rowsToJson(statsRows));
            reply.set("activity", rowsToJson(activityRows));
        }
        if (!writeMessage(repFd, reply).ok())
            return 1;
    }
}

} // namespace msim::serve
