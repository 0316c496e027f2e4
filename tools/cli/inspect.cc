#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <optional>

#include "cli.hh"
#include "gpusim/gpu_config.hh"
#include "gpusim/timing_simulator.hh"
#include "obs/trace_export.hh"
#include "util/env.hh"
#include "workloads/workloads.hh"

namespace msim::cli
{
namespace
{

/** The trace ring's size when MEGSIM_TRACE_CAPACITY is unset. */
constexpr std::size_t kDefaultTraceCapacity = 1 << 16;

/**
 * The benchmark's frames up to @p end, or nothing after naming why
 * not: an unknown alias, or a scene that ends before @p first.
 */
std::optional<gfx::SceneTrace>
loadScene(const Options &opt, std::size_t first, std::size_t end)
{
    auto built =
        workloads::tryBuildBenchmark(opt.bench, opt.scale, end);
    if (!built.ok()) {
        std::fprintf(stderr, "cannot load benchmark '%s': %s\n",
                     opt.bench.c_str(),
                     built.error().message.c_str());
        return std::nullopt;
    }
    if (first >= built->numFrames()) {
        std::fprintf(stderr, "frame %zu outside the %zu-frame scene\n",
                     first, built->numFrames());
        return std::nullopt;
    }
    return std::move(*built);
}

gpusim::GpuConfig
gpuConfig(const Options &opt)
{
    return opt.baseline ? gpusim::GpuConfig::baseline()
                        : gpusim::GpuConfig::evaluationScaled();
}

} // namespace

/**
 * Simulate one frame and dump the hierarchical stats registry (the
 * exact counters FrameStats and the estimator read).
 */
int
runStats(const Options &opt)
{
    const std::optional<gfx::SceneTrace> scene =
        loadScene(opt, opt.frame, opt.frame + 1);
    if (!scene)
        return kExitLoadFailure;
    const gpusim::GpuConfig config = gpuConfig(opt);
    gpusim::SceneBinding binding(*scene);
    gpusim::TimingSimulator timing(config, binding);
    const gpusim::FrameStats stats =
        timing.simulate(scene->frames[opt.frame]);

    std::printf("# %s frame %zu: %llu cycles, ipc %.2f\n",
                opt.bench.c_str(), opt.frame,
                static_cast<unsigned long long>(stats.cycles),
                stats.ipc());
    timing.stats().dump(std::cout, opt.filter);
    return kExitOk;
}

/**
 * Simulate a frame range with tracing on and export the events as
 * Chrome trace_event JSON (chrome://tracing / Perfetto) and, with
 * --csv, as CSV. MEGSIM_TRACE_CAPACITY sizes the ring: a whole number
 * >= 1; any other value warns, naming it, and keeps the default.
 */
int
runTrace(const Options &opt)
{
    const auto capacity = static_cast<std::size_t>(util::numberFromEnv(
        "MEGSIM_TRACE_CAPACITY", util::NumberRule::Count,
        static_cast<double>(kDefaultTraceCapacity), "using the default"));
    // The ring is allocated and zero-filled before the first frame, so
    // refuse one larger than physical memory here: overcommit can grant
    // it, and the fill then dies in the OOM killer, not in bad_alloc.
    const long pages = ::sysconf(_SC_PHYS_PAGES);
    const long pageSize = ::sysconf(_SC_PAGE_SIZE);
    if (pages > 0 && pageSize > 0 &&
        capacity > static_cast<std::uint64_t>(pages) *
                       static_cast<std::uint64_t>(pageSize) /
                       sizeof(obs::TraceEvent)) {
        std::fprintf(stderr,
                     "MEGSIM_TRACE_CAPACITY=%zu asks for a %.0f-byte "
                     "trace ring, more than the machine's %llu bytes "
                     "of memory\n",
                     capacity,
                     static_cast<double>(capacity) *
                         sizeof(obs::TraceEvent),
                     static_cast<unsigned long long>(pages) *
                         static_cast<unsigned long long>(pageSize));
        return kExitUsage;
    }

    const std::optional<gfx::SceneTrace> scene =
        loadScene(opt, opt.frames.begin, opt.frames.end);
    if (!scene)
        return kExitLoadFailure;
    const gpusim::GpuConfig config = gpuConfig(opt);
    gpusim::SceneBinding binding(*scene);
    gpusim::TimingSimulator timing(config, binding, capacity);
    for (std::size_t f = opt.frames.begin;
         f < opt.frames.end && f < scene->numFrames(); ++f)
        timing.simulate(scene->frames[f]);

    const obs::TraceBuffer &buf = timing.trace();
    if (buf.droppedCount() > 0)
        std::fprintf(stderr,
                     "note: ring dropped %llu oldest events (capacity "
                     "%zu); raise MEGSIM_TRACE_CAPACITY to keep them\n",
                     static_cast<unsigned long long>(
                         buf.droppedCount()),
                     buf.capacity());

    const std::string out = opt.out.empty() ? "trace.json" : opt.out;
    if (auto written =
            obs::writeChromeTrace(out, buf, config.frequencyMhz);
        !written.ok()) {
        std::fprintf(stderr, "cannot write trace '%s': %s\n",
                     out.c_str(), written.error().message.c_str());
        return kExitRuntime;
    }
    std::printf("wrote %zu events to %s\n", buf.size(), out.c_str());
    if (!opt.csv.empty()) {
        if (auto written = obs::writeTraceCsv(opt.csv, buf);
            !written.ok()) {
            std::fprintf(stderr, "cannot write trace CSV '%s': %s\n",
                         opt.csv.c_str(),
                         written.error().message.c_str());
            return kExitRuntime;
        }
        std::printf("wrote CSV to %s\n", opt.csv.c_str());
    }
    return kExitOk;
}

} // namespace msim::cli
