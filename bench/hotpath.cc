/**
 * @file
 * Hot-path microbench: timing-simulator throughput over the Table II
 * suite, emitting the versioned BENCH_gpusim.json perf report (the
 * repo's measured perf trajectory). Honors MEGSIM_FRAME_LIMIT /
 * MEGSIM_SCALE / MEGSIM_OUT_DIR like every other bench driver.
 *
 *   build/bench/hotpath            # full sequences
 *   MEGSIM_FRAME_LIMIT=48 build/bench/hotpath   # smoke run
 */

#include <cstdio>

#include "bench_common.hh"
#include "perf/perf.hh"

int
main()
{
    using namespace msim;

    perf::PerfOptions options;
    options.scale = workloads::scaleFromEnv();

    auto report = perf::runHotpath(options);
    if (!report.ok()) {
        std::fprintf(stderr, "hotpath: %s\n",
                     report.error().message.c_str());
        return 1;
    }

    std::printf("# hotpath: %zu benchmarks, frame limit %zu\n",
                report->benches.size(), report->frameLimit);
    std::printf("%-10s %8s %14s %10s %12s %14s\n", "benchmark",
                "frames", "cycles", "wall_s", "frames/s", "Mcycles/s");
    bench::printRule(74);
    for (const perf::BenchPerf &b : report->benches)
        std::printf("%-10s %8zu %14llu %10.3f %12.1f %14.1f\n",
                    b.alias.c_str(), b.frames,
                    static_cast<unsigned long long>(b.cycles),
                    b.wallSeconds, b.framesPerSec, b.mcyclesPerSec);
    bench::printRule(74);
    std::printf("%-10s %8zu %14llu %10.3f %12.1f %14.1f\n", "suite",
                report->totalFrames,
                static_cast<unsigned long long>(report->totalCycles),
                report->totalWallSeconds, report->framesPerSec,
                report->mcyclesPerSec);
    for (const perf::PhaseSplit &p : report->phases)
        std::printf("  phase %-10s %10.3f s\n", p.name.c_str(),
                    p.seconds);

    const std::string out = bench::outDir() + "/BENCH_gpusim.json";
    if (auto saved = report->save(out); !saved.ok()) {
        std::fprintf(stderr, "hotpath: cannot write %s: %s\n",
                     out.c_str(), saved.error().message.c_str());
        return 1;
    }
    std::printf("report: %s\n", out.c_str());
    return 0;
}
