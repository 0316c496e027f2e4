/**
 * @file
 * Concurrent-load serving throughput — BENCH_serve.json. Drives a
 * real forked serve::Fleet plus the sched::Scheduler through a
 * (workers × concurrent requests) matrix of heterogeneous campaign
 * requests (each request regenerates one suite benchmark from a cold
 * cache), then A/Bs strict FIFO against weighted fair-share at the
 * contended 4-worker × 4-request point. Emits the megsim-serve-v1
 * report and an optional megsim-run-v1 ledger, and compares against a
 * committed baseline like the perf trajectory: warn-only by default,
 * or as an enforced gate with --strict (a regression beyond the band
 * exits 10; an improvement beyond it prints the cp command that
 * refreshes the baseline; missing baseline points stay informational).
 *
 *   MEGSIM_FRAME_LIMIT=48 build/bench/serve \
 *       --compare ci/BENCH_serve.json --band 25 --strict
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "exec/pool.hh"
#include "obs/ledger.hh"
#include "obs/profile.hh"
#include "sched/report.hh"
#include "sched/scheduler.hh"
#include "serve/fleet.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace msim;

struct Round
{
    sched::ServeLoadPoint point;
    bool ok = true;
};

double
percentile(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double rank = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/**
 * One load point: @p requests heterogeneous single-bench campaigns
 * (suite benches round-robin, one tenant each) admitted together onto
 * a fresh @p workers-process fleet over a cold cache, timed to drain.
 */
Round
runRound(std::size_t workers, std::size_t requests,
         sched::Policy policy, std::size_t frames,
         std::size_t shardFrames, const std::string &cacheDir)
{
    std::error_code ec;
    std::filesystem::remove_all(cacheDir, ec);

    batch::CampaignConfig base = batch::CampaignConfig::fromEnv();
    base.frameLimit = frames;
    base.cacheDir = cacheDir;

    serve::SupervisorConfig sup = serve::SupervisorConfig::fromEnv();
    sup.workers = workers;
    sup.shardFrames = shardFrames;

    serve::Fleet fleet(base, workers);
    sched::SchedulerConfig config;
    config.policy = policy;
    config.maxInflight = std::max<std::size_t>(requests, 8);
    config.shard = sup;
    sched::Scheduler scheduler(base, config, fleet);

    const std::vector<std::string> suite =
        workloads::benchmarkNames();

    Round round;
    round.point.workers = workers;
    round.point.requests = requests;
    round.point.policy = sched::policyName(policy);

    const double t0 = obs::wallSeconds();
    for (std::size_t i = 0; i < requests; ++i) {
        sched::RequestSpec spec;
        spec.benches = {suite[i % suite.size()]};
        spec.tenant = "tenant-" + std::to_string(i);
        auto admitted = scheduler.admit(spec);
        if (!admitted.ok()) {
            std::fprintf(stderr, "serve-bench: admit failed: %s\n",
                         admitted.error().message.c_str());
            round.ok = false;
            return round;
        }
    }
    std::vector<sched::RequestResult> results =
        scheduler.runToCompletion();
    const double makespan = obs::wallSeconds() - t0;
    fleet.shutdown();

    if (results.size() != requests) {
        std::fprintf(stderr,
                     "serve-bench: %zu of %zu requests finished\n",
                     results.size(), requests);
        round.ok = false;
        return round;
    }
    std::vector<double> latencies;
    for (const sched::RequestResult &r : results)
        latencies.push_back(r.queueWaitSeconds + r.serviceSeconds);
    std::sort(latencies.begin(), latencies.end());

    round.point.makespanSeconds = makespan;
    round.point.requestsPerSec =
        makespan > 0.0 ? static_cast<double>(requests) / makespan
                       : 0.0;
    round.point.p50LatencySeconds = percentile(latencies, 0.50);
    round.point.p95LatencySeconds = percentile(latencies, 0.95);
    return round;
}

void
printPoint(const sched::ServeLoadPoint &p)
{
    std::printf("%-8zu %-9zu %-6s %12.3f %12.2f %10.3f %10.3f\n",
                p.workers, p.requests, p.policy.c_str(),
                p.makespanSeconds, p.requestsPerSec,
                p.p50LatencySeconds, p.p95LatencySeconds);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = bench::outDir() + "/BENCH_serve.json";
    std::string ledgerPath;
    std::string compare;
    bool strict = false;
    double band = 25.0;
    std::size_t frames = workloads::frameLimitFromEnv();
    // Real workloads replay API traces from disk, so shard wall time
    // is wait-dominated; the think time reproduces that I/O-bound
    // profile deterministically so the scheduling comparison measures
    // wait-overlap, not this machine's core count.
    std::size_t thinkMs = 200;
    if (const char *env = std::getenv("MEGSIM_SHARD_THINK_MS"))
        thinkMs = static_cast<std::size_t>(std::atoll(env));

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--out") {
            if (const char *v = next())
                out = v;
        } else if (arg == "--ledger") {
            if (const char *v = next())
                ledgerPath = v;
        } else if (arg == "--compare") {
            if (const char *v = next())
                compare = v;
        } else if (arg == "--band") {
            if (const char *v = next())
                band = std::atof(v);
        } else if (arg == "--frames") {
            if (const char *v = next())
                frames = static_cast<std::size_t>(std::atoll(v));
        } else if (arg == "--think-ms") {
            if (const char *v = next())
                thinkMs = static_cast<std::size_t>(std::atoll(v));
        } else if (arg == "--strict") {
            strict = true;
        } else {
            std::fprintf(stderr,
                         "usage: serve [--out PATH] [--ledger PATH]"
                         " [--compare BASELINE.json] [--band PCT]"
                         " [--strict] [--frames N] [--think-ms MS]\n");
            return 2;
        }
    }
    if (frames == 0)
        frames = 48;
    ::setenv("MEGSIM_SHARD_THINK_MS",
             std::to_string(thinkMs).c_str(), 1);
    // Two shards per single-bench request: FIFO's exclusive waves
    // leave workers idle, which is exactly the contention fair-share
    // reclaims.
    const std::size_t shardFrames = (frames + 1) / 2;
    const std::string cacheDir =
        bench::outDir() + "/serve-bench-cache";

    obs::RunLedger ledger;
    {
        util::Json fields = util::Json::object();
        fields.set("tool", "serve-bench");
        fields.set("threads", exec::Pool::global().workers());
        fields.set("frame_limit", frames);
        ledger.event("run_start", std::move(fields));
    }
    const double runStart = obs::wallSeconds();

    sched::ServeReport report;
    report.frameLimit = frames;
    report.shardFrames = shardFrames;
    report.thinkMs = thinkMs;

    std::printf("# serve: %zu frames/request, %zu frames/shard, "
                "%zu ms think/shard\n",
                frames, shardFrames, thinkMs);
    std::printf("%-8s %-9s %-6s %12s %12s %10s %10s\n", "workers",
                "requests", "policy", "makespan_s", "req/s",
                "p50_s", "p95_s");
    bench::printRule(74);

    const std::size_t workerGrid[] = {1, 2, 4};
    const std::size_t requestGrid[] = {1, 4, 8};
    for (std::size_t workers : workerGrid)
        for (std::size_t requests : requestGrid) {
            Round round =
                runRound(workers, requests,
                         sched::Policy::FairShare, frames,
                         shardFrames, cacheDir);
            if (!round.ok)
                return 1;
            printPoint(round.point);
            if (workers == 4 && requests == 4)
                report.fairRequestsPerSec =
                    round.point.requestsPerSec;
            report.points.push_back(std::move(round.point));
        }

    // The A/B the acceptance criterion cares about: same four
    // heterogeneous requests, same 4-worker fleet, strict FIFO.
    Round fifo = runRound(4, 4, sched::Policy::Fifo, frames,
                          shardFrames, cacheDir);
    if (!fifo.ok)
        return 1;
    printPoint(fifo.point);
    report.fifoRequestsPerSec = fifo.point.requestsPerSec;
    report.points.push_back(std::move(fifo.point));
    report.fairSpeedup =
        report.fifoRequestsPerSec > 0.0
            ? report.fairRequestsPerSec / report.fifoRequestsPerSec
            : 0.0;
    bench::printRule(74);
    std::printf("fair-share vs fifo @ 4x4: %.2fx (%.2f vs %.2f"
                " req/s)\n",
                report.fairSpeedup, report.fairRequestsPerSec,
                report.fifoRequestsPerSec);

    {
        util::Json values = util::Json::object();
        values.set("serve_fair_speedup", report.fairSpeedup);
        values.set("serve_fair_rps", report.fairRequestsPerSec);
        values.set("serve_fifo_rps", report.fifoRequestsPerSec);
        util::Json fields = util::Json::object();
        fields.set("values", std::move(values));
        ledger.event("metrics", std::move(fields));
    }
    {
        util::Json fields = util::Json::object();
        fields.set("wall_seconds", obs::wallSeconds() - runStart);
        fields.set("status", "ok");
        ledger.event("run_end", std::move(fields));
    }

    if (auto saved = report.save(out); !saved.ok()) {
        std::fprintf(stderr, "serve-bench: cannot write %s: %s\n",
                     out.c_str(), saved.error().message.c_str());
        return 1;
    }
    std::printf("report: %s\n", out.c_str());
    if (!ledgerPath.empty()) {
        if (auto saved = ledger.save(ledgerPath); !saved.ok()) {
            std::fprintf(stderr,
                         "serve-bench: cannot write %s: %s\n",
                         ledgerPath.c_str(),
                         saved.error().message.c_str());
            return 1;
        }
        std::printf("ledger: %s\n", ledgerPath.c_str());
    }

    int rc = 0;
    if (!compare.empty()) {
        auto baseline = sched::ServeReport::load(compare);
        if (!baseline.ok()) {
            // A missing baseline never gates — strict or not — so a
            // brand-new matrix point can land before its baseline.
            std::fprintf(stderr,
                         "serve-bench: no baseline %s: %s\n",
                         compare.c_str(),
                         baseline.error().message.c_str());
        } else {
            const std::vector<sched::ServeDelta> deltas =
                sched::compareServeDeltas(report, *baseline, band);
            bool regression = false;
            bool improvement = false;
            for (const sched::ServeDelta &d : deltas) {
                if (d.missingBaseline) {
                    std::printf("NOTE %s: no baseline point\n",
                                d.what.c_str());
                    continue;
                }
                std::printf("%s %s: %.3f vs baseline %.3f (%+.1f%%,"
                            " band ±%.0f%%)\n",
                            strict ? "DELTA" : "WARN",
                            d.what.c_str(), d.current, d.baseline,
                            d.deltaPercent, band);
                (d.deltaPercent < 0.0 ? regression : improvement) =
                    true;
            }
            if (!regression && !improvement)
                std::printf("within ±%.0f%% of %s\n", band,
                            compare.c_str());
            if (strict && regression) {
                std::fprintf(stderr,
                             "serve-bench: regression beyond the "
                             "±%.0f%% band vs %s\n",
                             band, compare.c_str());
                rc = 10;
            } else if (strict && improvement) {
                std::printf("serve-bench improved beyond the band; "
                            "refresh the committed baseline:\n"
                            "  cp %s %s\n",
                            out.c_str(), compare.c_str());
            }
        }
    }
    std::error_code ec;
    std::filesystem::remove_all(cacheDir, ec);
    return rc;
}
