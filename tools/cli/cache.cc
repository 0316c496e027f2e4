#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cli.hh"
#include "core/megsim.hh"
#include "exec/pool.hh"
#include "gpusim/gpu_config.hh"
#include "obs/stats.hh"
#include "resilience/checkpoint.hh"
#include "workloads/workloads.hh"

namespace msim::cli
{
namespace
{

/**
 * Build the scene + BenchmarkData pair shared by resume/verify. The
 * cache lives in --cache-dir, else MEGSIM_CACHE_DIR, else out/cache.
 */
bool
openBenchmarkData(const Options &opt, gfx::SceneTrace &scene,
                  std::unique_ptr<megsim::BenchmarkData> &data)
{
    auto built = workloads::tryBuildBenchmark(
        opt.bench, opt.scale, workloads::frameLimitFromEnv());
    if (!built.ok()) {
        std::fprintf(stderr, "cannot load benchmark '%s': %s\n",
                     opt.bench.c_str(),
                     built.error().message.c_str());
        return false;
    }
    scene = std::move(*built);
    const gpusim::GpuConfig config =
        opt.baseline ? gpusim::GpuConfig::baseline()
                     : gpusim::GpuConfig::evaluationScaled();
    const char *env = std::getenv("MEGSIM_CACHE_DIR");
    data = std::make_unique<megsim::BenchmarkData>(
        scene, config,
        !opt.cacheDir.empty() ? opt.cacheDir : env ? env : "out/cache");
    return true;
}

} // namespace

/**
 * Run (or resume) the checkpointed ground-truth pass for a benchmark.
 * A run killed mid-pass picks up from the last checkpointed frame; a
 * complete cache returns immediately. A frame that blows a watchdog
 * budget fails the pass (exit 1); the frames before it stay journaled.
 */
int
runResume(const Options &opt)
{
    gfx::SceneTrace scene;
    std::unique_ptr<megsim::BenchmarkData> data;
    if (!openBenchmarkData(opt, scene, data))
        return kExitLoadFailure;

    if (auto pass = data->ensureFrameStats(); !pass.ok()) {
        std::fprintf(stderr, "resume failed: %s\n",
                     pass.error().message.c_str());
        return kExitRuntime;
    }
    const std::vector<gpusim::FrameStats> &stats = data->frameStats();
    double cycles = 0.0;
    for (const gpusim::FrameStats &s : stats)
        cycles += static_cast<double>(s.cycles);
    std::printf("# %s: %zu frames, %.0f total cycles, %zu threads\n",
                opt.bench.c_str(), stats.size(), cycles,
                exec::Pool::global().workers());
    obs::processRegistry().dump(std::cout, "resilience.*");
    obs::processRegistry().dump(std::cout, "exec.pool.*");
    return kExitOk;
}

/**
 * Integrity-check the benchmark's cache, its checkpoint, through the
 * loader every run uses: per journal `OK N rows`, `partial k/N` (a
 * later run resumes it) or `missing`; a journal line or manifest that
 * fails its check prints `CORRUPT`, naming the first bad line, and
 * exits 4. The next run resumes from the lines before it.
 */
int
runVerifyCache(const Options &opt)
{
    gfx::SceneTrace scene;
    std::unique_ptr<megsim::BenchmarkData> data;
    if (!openBenchmarkData(opt, scene, data))
        return kExitLoadFailure;

    const resilience::Checkpoint ckpt = data->checkpoint();
    auto found = ckpt.read();
    if (!found.ok()) {
        if (found.error().code == resilience::Errc::NotFound) {
            for (const char *kind : {"activity", "stats"})
                std::printf("%-8s missing   %s\n", kind,
                            ckpt.journalPath(kind).c_str());
            return kExitOk;
        }
        std::printf("%-8s CORRUPT   %s: %s\n", "manifest",
                    ckpt.manifestPath().c_str(),
                    found.error().message.c_str());
        return kExitCacheFailure;
    }
    const std::size_t total = scene.numFrames();
    for (const char *kind : {"activity", "stats"}) {
        const resilience::JournalRows &journal =
            std::string(kind) == "stats" ? found->stats
                                         : found->activity;
        const std::string path = ckpt.journalPath(kind);
        if (journal.badLine)
            std::printf("%-8s CORRUPT   %s: line %zu %s\n", kind,
                        path.c_str(), journal.badLine, journal.problem);
        else if (journal.rows.size() == total)
            std::printf("%-8s OK        %zu rows  %s\n", kind, total,
                        path.c_str());
        else
            std::printf("%-8s partial   %zu/%zu  %s\n", kind,
                        journal.rows.size(), total, path.c_str());
    }
    return found->corrupt() ? kExitCacheFailure : kExitOk;
}

} // namespace msim::cli
