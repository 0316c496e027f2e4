/**
 * @file
 * Shared helpers for the table/figure regeneration binaries: the
 * evaluation GPU profile, benchmark loading with the shared on-disk
 * frame cache, and fixed-width table printing.
 */

#ifndef MSIM_BENCH_BENCH_COMMON_HH
#define MSIM_BENCH_BENCH_COMMON_HH

#include <memory>
#include <string>

#include "gfx/trace.hh"
#include "gpusim/gpu_config.hh"
#include "core/megsim.hh"
#include "workloads/workloads.hh"

namespace msim::bench
{

/** A loaded benchmark: scene + cached per-frame data. */
struct LoadedBenchmark
{
    std::string alias;
    workloads::GameSpec spec;
    gfx::SceneTrace scene;
    std::unique_ptr<megsim::BenchmarkData> data;
};

/** The GPU profile every evaluation bench uses. */
gpusim::GpuConfig evalConfig();

/** Directory of the shared frame cache (MEGSIM_CACHE_DIR overrides). */
std::string cacheDir();

/** Output directory for CSV/PGM artifacts (MEGSIM_OUT_DIR overrides). */
std::string outDir();

/**
 * Load one benchmark. Honors MEGSIM_FRAME_LIMIT (truncates sequences,
 * for quick smoke runs) and MEGSIM_SCALE (workload complexity).
 */
LoadedBenchmark loadBenchmark(const std::string &alias);

/** The default MEGsim methodology configuration of the evaluation. */
megsim::MegsimConfig defaultMegsimConfig();

/** Print a horizontal rule sized for @p width columns. */
void printRule(int width);

} // namespace msim::bench

#endif // MSIM_BENCH_BENCH_COMMON_HH
