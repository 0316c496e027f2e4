#include "bench_common.hh"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <vector>

#include "exec/pool.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "sim/logging.hh"

namespace msim::bench
{

namespace
{

/**
 * Resolve a directory from @p env (fallback @p fallback), create it
 * if missing, and log the resolved path once — bench runs always say
 * where their artifacts went.
 */
std::string
resolveDir(const char *env, const char *fallback)
{
    std::string dir = fallback;
    if (const char *value = std::getenv(env))
        dir = value;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        sim::warn("cannot create %s '%s': %s", env, dir.c_str(),
                  ec.message().c_str());
    sim::informOnce(env, "%s = %s", env, dir.c_str());
    return dir;
}

/**
 * Prints the obs::Span totals when the bench exits. The process
 * registry this reads already holds every worker's spans: exec::Pool
 * merges its per-worker shards back on job completion, so the seconds
 * here are the SUM across workers (total CPU time per span), and
 * nested spans each count their own time.
 */
struct SpanReportAtExit
{
    SpanReportAtExit()
    {
        // Construct the process registry before registering the exit
        // hook so it is destroyed after the hook has run.
        obs::processRegistry();
        std::atexit([] {
            const std::vector<obs::SpanTotal> totals =
                obs::spanTotals(obs::processRegistry());
            if (totals.empty())
                return;
            std::fprintf(stderr, "%-24s %10s %10s\n", "span", "seconds",
                         "entries");
            for (const obs::SpanTotal &span : totals)
                std::fprintf(stderr, "%-24s %10.3f %10llu\n",
                             span.name.c_str(), span.seconds,
                             static_cast<unsigned long long>(
                                 span.entries));
        });
    }
};

} // namespace

gpusim::GpuConfig
evalConfig()
{
    return gpusim::GpuConfig::evaluationScaled();
}

std::string
cacheDir()
{
    static const std::string dir =
        resolveDir("MEGSIM_CACHE_DIR", "out/cache");
    return dir;
}

std::string
outDir()
{
    static const std::string dir = resolveDir("MEGSIM_OUT_DIR", "out");
    return dir;
}

LoadedBenchmark
loadBenchmark(const std::string &alias)
{
    static SpanReportAtExit reportAtExit;
    sim::informOnce("exec.pool.workers", "worker pool: %zu threads",
                    exec::Pool::global().workers());

    const std::size_t frame_limit = workloads::frameLimitFromEnv();
    const double scale = workloads::scaleFromEnv();

    auto spec = workloads::findBenchmarkSpec(alias);
    if (!spec.ok()) {
        // A typoed alias is an operator mistake, not a simulator bug:
        // print the did-you-mean message and exit cleanly.
        std::fprintf(stderr, "%s\n", spec.error().message.c_str());
        std::exit(2);
    }

    LoadedBenchmark b;
    b.alias = alias;
    b.spec = *spec;
    b.scene = workloads::buildBenchmark(alias, scale, frame_limit);
    b.data = std::make_unique<megsim::BenchmarkData>(
        b.scene, evalConfig(), cacheDir());
    return b;
}

megsim::MegsimConfig
defaultMegsimConfig()
{
    megsim::MegsimConfig config;
    config.selector.threshold = 0.85;
    config.selector.kmeans.seed = 0x4d4547; // "MEG"
    return config;
}

void
printRule(int width)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

} // namespace msim::bench
