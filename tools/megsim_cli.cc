/**
 * @file
 * megsim-cli: command-line access to the observability layer.
 *
 *   megsim-cli stats [--bench ALIAS] [--frame N] [--filter GLOB]
 *       Simulate one frame and dump the hierarchical stats registry
 *       (the exact counters FrameStats and the estimator read).
 *
 *   megsim-cli trace [--bench ALIAS] [--frames A:B] [--out PATH]
 *                    [--csv PATH]
 *       Simulate a frame range with tracing enabled and export the
 *       events as Chrome trace_event JSON (chrome://tracing /
 *       Perfetto) and/or CSV.
 *
 *   megsim-cli resume [--bench ALIAS] [--cache-dir DIR]
 *       Run (or resume) the checkpointed ground-truth pass for a
 *       benchmark. A run killed mid-pass picks up from the last
 *       checkpointed frame; a complete cache returns immediately.
 *       A frame that blows a watchdog budget fails the pass (exit
 *       1); the frames before it stay journaled.
 *
 *   megsim-cli verify-cache [--bench ALIAS] [--cache-dir DIR]
 *       Integrity-check the benchmark's cache, its checkpoint, through
 *       the loader every run uses: per journal `OK N rows`, `partial
 *       k/N` (a later run resumes it) or `missing`; a journal line or
 *       manifest that fails its check prints `CORRUPT`, naming the
 *       first bad line, and exits 4. The next run resumes from the
 *       lines before it.
 *
 *   megsim-cli campaign [--benches A,B,C] [--out campaign.json]
 *                       [--check thresholds.json] [--cache-dir DIR]
 *                       [--ledger PATH] [--workers N] [--attrib]
 *                       [--timeline PATH]
 *       Run the full MEGsim pipeline for the whole benchmark suite
 *       through one shared worker pool and write the machine-readable
 *       accuracy report CI gates on. --check compares the report
 *       against a thresholds file and fails on any regression. Every
 *       successful campaign also writes a megsim-run-v1 JSONL run
 *       ledger next to the report (<report>.run.jsonl, or --ledger).
 *       --workers N (default 0 = in-process) regenerates ground truth
 *       as one request to the crash-isolated scheduler: N forked
 *       worker processes, per-shard retry/backoff, poison-shard
 *       quarantine. A degraded (quarantined) campaign exits 8; the
 *       worker count is recorded in the ledger's run_start manifest.
 *       --attrib prints where the host seconds went, by domain, and
 *       records it in the ledger; --timeline PATH writes the
 *       per-worker host timeline as Chrome trace_event JSON for
 *       Perfetto. A timeline that cannot be written warns, naming
 *       the path, and the exit code stays.
 *
 *   megsim-cli serve --socket PATH [--max-requests N] [--workers N]
 *                    [--max-inflight N] [--benches A,B,C]
 *                    [--cache-dir DIR] [--timeline PATH]
 *       Listen on a unix-domain socket and serve campaign requests
 *       concurrently, by weighted fair share over tenants, against
 *       one shared worker fleet and cache store, each with its own
 *       stats registry and run ledger. Frames of any other type are
 *       refused. --timeline PATH writes the session's host timeline,
 *       with one lane per request.
 *
 *   megsim-cli submit --socket PATH [--benches A,B,C] [--tenant NAME]
 *                     [--weight W] [--out REPORT.json] [--ledger PATH]
 *       Send one campaign request to a running `serve` and print the
 *       returned report; exits 8 if the served campaign degraded. The
 *       fleet belongs to the server (`serve --workers`): submit
 *       --workers is a usage error.
 *
 *   megsim-cli campaign --diff A.json B.json
 *       Compare two campaign reports modulo the documented host-side
 *       fields (wall clocks, pool utilization, thread count, cache
 *       provenance). Prints every difference; exits 6 on mismatch.
 *       A report with another schema tag or a mem_mode other than
 *       "exact" (written by a removed mode) fails to load and exits
 *       3, naming the file.
 *
 *   megsim-cli ledger --validate PATH
 *       Strictly round-trip a run ledger through the util/json parser
 *       and the megsim-run-v1 schema; exits 7 on any unknown event,
 *       unknown field or missing required field.
 *
 * Common options: --scale S (workload complexity), --baseline (use
 * the full Table I GPU instead of the scaled evaluation profile),
 * --threads N (worker-pool size; overrides MEGSIM_THREADS, 1 = exact
 * serial execution). --attrib outside campaign, and --timeline
 * outside campaign and serve, are usage errors: nothing else reads
 * them.
 *
 * Exit codes are distinct per failure class so CI can gate on them:
 * 0 success, 1 runtime/simulation failure, 2 usage (including a
 * malformed number, named with its option), 3 load failure (unknown
 * alias, missing/unreadable input file), 4 cache verification
 * failure, 5 threshold breach, 6 report diff mismatch, 7 invalid run
 * ledger, 8 degraded campaign (quarantined shards), 9 serve queue
 * full; 10 is retired and stays unused. Failures print the offending
 * path or alias.
 *
 * Timing is measured by perfbench (BENCHMARK.json), not by this tool.
 */

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "batch/campaign.hh"
#include "core/megsim.hh"
#include "exec/pool.hh"
#include "gpusim/gpu_config.hh"
#include "gpusim/timing_simulator.hh"
#include "obs/attrib.hh"
#include "obs/ledger.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "obs/trace_export.hh"
#include "resilience/checkpoint.hh"
#include "sched/scheduler.hh"
#include "serve/fleet.hh"
#include "serve/service.hh"
#include "util/env.hh"
#include "util/json.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace msim;

// Distinct per failure class so CI can gate on the code alone.
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitUsage = 2;
constexpr int kExitLoadFailure = 3;
constexpr int kExitCacheFailure = 4;
constexpr int kExitThresholdBreach = 5;
constexpr int kExitDiffMismatch = 6;
constexpr int kExitLedgerInvalid = 7;
constexpr int kExitDegraded = 8;
constexpr int kExitQueueFull = 9;

struct Options
{
    std::string command;
    std::string bench = "bbr1";
    std::string benches; // campaign: comma-separated aliases
    std::string filter = "*";
    std::string out = "trace.json";
    std::string csv;
    std::string cacheDir;
    std::string check; // campaign: thresholds file
    std::string report = "campaign.json";
    std::string diffA, diffB; // campaign: reports to compare
    std::string ledger;   // run-ledger path ("" = next to report)
    std::string timeline; // Chrome timeline path ("" = off)
    std::string validate; // ledger: file to schema-check
    std::string socket;   // serve/submit: unix socket path
    std::string tenant;   // submit: fair-share tenant label
    double weight = 1.0;  // submit: fair-share weight
    std::size_t maxInflight = 0; // serve: 0 = env / built-in default
    std::size_t workers = 0; // supervised workers (0 = in-process)
    std::size_t maxRequests = 0; // serve: 0 = serve forever
    std::size_t frameBegin = 0;
    std::size_t frameEnd = 1;
    double scale = 1.0;
    std::size_t threads = 0; // 0 = keep MEGSIM_THREADS / hw default
    bool baseline = false;
    bool outSet = false;
    bool attrib = false; // host-cost attribution report
    bool weightSet = false; // submit: forward --weight only if given
};

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s stats [--bench ALIAS] [--frame N] [--filter GLOB]\n"
        "       %s trace [--bench ALIAS] [--frames A:B] [--out PATH]"
        " [--csv PATH]\n"
        "       %s resume [--bench ALIAS] [--cache-dir DIR]\n"
        "       %s verify-cache [--bench ALIAS] [--cache-dir DIR]\n"
        "       %s campaign [--benches A,B,C] [--out REPORT.json]"
        " [--check THRESHOLDS.json] [--cache-dir DIR]"
        " [--ledger PATH] [--workers N] [--attrib] [--timeline PATH]\n"
        "       %s campaign --diff A.json B.json\n"
        "       %s serve --socket PATH [--max-requests N]"
        " [--workers N] [--max-inflight N] [--benches A,B,C]"
        " [--cache-dir DIR] [--timeline PATH]\n"
        "       %s submit --socket PATH [--benches A,B,C]"
        " [--tenant NAME] [--weight W]"
        " [--out REPORT.json] [--ledger PATH]\n"
        "       %s ledger --validate PATH\n"
        "options: --scale S, --baseline, --threads N\n"
        "benches:",
        argv0, argv0, argv0, argv0, argv0, argv0, argv0, argv0,
        argv0);
    for (const std::string &alias : workloads::benchmarkNames())
        std::fprintf(stderr, " %s", alias.c_str());
    std::fprintf(stderr, "\n");
    return kExitUsage;
}

/**
 * Option @p name's value @p text as a number obeying @p rule, stored in
 * @p out. A missing or malformed value names the option and fails the
 * parse (a usage error).
 */
template <typename T>
bool
numberOption(const char *name, const char *text, util::NumberRule rule,
             T &out)
{
    const std::optional<double> value = util::parseNumber(text, rule);
    if (!value) {
        std::fprintf(stderr, "%s needs %s\n", name, util::describe(rule));
        return false;
    }
    out = static_cast<T>(*value);
    return true;
}

/** "N" (frame N) or "A:B" (frames A to B-1), whole numbers, A < B. */
bool
parseRange(const char *name, const char *text, std::size_t &begin,
           std::size_t &end)
{
    const std::string range = text ? text : "";
    const std::size_t colon = range.find(':');
    const bool single = colon == std::string::npos;
    const std::optional<double> a = util::parseNumber(
        range.substr(0, colon).c_str(), util::NumberRule::Whole);
    const std::optional<double> b =
        single ? a
               : util::parseNumber(range.c_str() + colon + 1,
                                   util::NumberRule::Whole);
    if (!a || !b || (!single && *b <= *a)) {
        std::fprintf(stderr, "%s needs a frame N or a range A:B of whole "
                     "numbers with A < B\n", name);
        return false;
    }
    begin = static_cast<std::size_t>(*a);
    end = single ? begin + 1 : static_cast<std::size_t>(*b);
    return true;
}

bool
parse(int argc, char **argv, Options &opt)
{
    if (argc < 2)
        return false;
    opt.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--bench") {
            const char *v = next();
            if (!v)
                return false;
            opt.bench = v;
        } else if (arg == "--frame" || arg == "--frames") {
            if (!parseRange(arg.c_str(), next(), opt.frameBegin,
                            opt.frameEnd))
                return false;
        } else if (arg == "--filter") {
            const char *v = next();
            if (!v)
                return false;
            opt.filter = v;
        } else if (arg == "--out") {
            const char *v = next();
            if (!v)
                return false;
            opt.out = v;
            opt.report = v;
            opt.outSet = true;
        } else if (arg == "--benches") {
            const char *v = next();
            if (!v)
                return false;
            opt.benches = v;
        } else if (arg == "--check") {
            const char *v = next();
            if (!v)
                return false;
            opt.check = v;
        } else if (arg == "--diff") {
            const char *a = next();
            const char *b = next();
            if (!a || !b)
                return false;
            opt.diffA = a;
            opt.diffB = b;
        } else if (arg == "--ledger") {
            const char *v = next();
            if (!v)
                return false;
            opt.ledger = v;
        } else if (arg == "--timeline") {
            const char *v = next();
            if (!v)
                return false;
            opt.timeline = v;
        } else if (arg == "--validate") {
            const char *v = next();
            if (!v)
                return false;
            opt.validate = v;
        } else if (arg == "--attrib") {
            opt.attrib = true;
        } else if (arg == "--csv") {
            const char *v = next();
            if (!v)
                return false;
            opt.csv = v;
        } else if (arg == "--scale") {
            if (!numberOption("--scale", next(),
                              util::NumberRule::Positive, opt.scale))
                return false;
        } else if (arg == "--threads") {
            if (!numberOption("--threads", next(),
                              util::NumberRule::Count, opt.threads))
                return false;
        } else if (arg == "--workers") {
            if (opt.command == "submit") {
                std::fprintf(stderr, "submit takes no --workers: the "
                             "fleet belongs to the server (serve "
                             "--workers N)\n");
                return false;
            }
            if (!numberOption("--workers", next(),
                              util::NumberRule::Whole, opt.workers))
                return false;
        } else if (arg == "--socket") {
            const char *v = next();
            if (!v)
                return false;
            opt.socket = v;
        } else if (arg == "--max-requests") {
            if (!numberOption("--max-requests", next(),
                              util::NumberRule::Whole, opt.maxRequests))
                return false;
        } else if (arg == "--max-inflight") {
            if (!numberOption("--max-inflight", next(),
                              util::NumberRule::Count, opt.maxInflight))
                return false;
        } else if (arg == "--tenant") {
            const char *v = next();
            if (!v)
                return false;
            opt.tenant = v;
        } else if (arg == "--weight") {
            if (!numberOption("--weight", next(),
                              util::NumberRule::Positive, opt.weight))
                return false;
            opt.weightSet = true;
        } else if (arg == "--cache-dir") {
            const char *v = next();
            if (!v)
                return false;
            opt.cacheDir = v;
        } else if (arg == "--baseline") {
            opt.baseline = true;
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            return false;
        }
    }
    const bool known =
        opt.command == "stats" || opt.command == "trace" ||
        opt.command == "resume" || opt.command == "verify-cache" ||
        opt.command == "campaign" || opt.command == "ledger" ||
        opt.command == "serve" || opt.command == "submit";
    if (!known) {
        std::fprintf(stderr, "unknown command '%s'\n",
                     opt.command.c_str());
        return false;
    }
    // A telemetry flag that no part of the command reads is refused,
    // not silently run with.
    if (opt.attrib && opt.command != "campaign") {
        std::fprintf(stderr, "--attrib is read by campaign only\n");
        return false;
    }
    if (!opt.timeline.empty() && opt.command != "campaign" &&
        opt.command != "serve") {
        std::fprintf(stderr,
                     "--timeline is read by campaign and serve only\n");
        return false;
    }
    return true;
}

std::string
resolveCacheDir(const Options &opt)
{
    if (!opt.cacheDir.empty())
        return opt.cacheDir;
    if (const char *env = std::getenv("MEGSIM_CACHE_DIR"))
        return env;
    return "out/cache";
}

/** Build the scene + BenchmarkData pair shared by resume/verify. */
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
    data = std::make_unique<megsim::BenchmarkData>(scene, config,
                                                   resolveCacheDir(opt));
    return true;
}

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

std::vector<std::string>
splitCsvList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t begin = 0;
    while (begin <= text.size()) {
        const std::size_t comma = text.find(',', begin);
        const std::string piece =
            text.substr(begin, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - begin);
        if (!piece.empty())
            out.push_back(piece);
        if (comma == std::string::npos)
            break;
        begin = comma + 1;
    }
    return out;
}

/** <report>.json -> <report>.run.jsonl (next to the report). */
std::string
defaultLedgerPath(const std::string &report)
{
    std::string stem = report;
    const std::string suffix = ".json";
    if (stem.size() > suffix.size() &&
        stem.compare(stem.size() - suffix.size(), suffix.size(),
                     suffix) == 0)
        stem.resize(stem.size() - suffix.size());
    return stem + ".run.jsonl";
}

/** The MEGSIM_* environment subset that shapes a run's numbers. */
util::Json
envManifest()
{
    static const char *const kVars[] = {
        "MEGSIM_THREADS",   "MEGSIM_FRAME_LIMIT", "MEGSIM_SCALE",
        "MEGSIM_CACHE_DIR", "MEGSIM_SCHED_MAX_INFLIGHT",
    };
    util::Json env = util::Json::object();
    for (const char *var : kVars)
        if (const char *value = std::getenv(var))
            env.set(var, value);
    return env;
}

/**
 * The campaign ledger's run_start manifest. @p workers is the
 * supervised worker-process count (0 = in-process).
 */
void
ledgerRunStart(obs::RunLedger &ledger, std::size_t threads,
               std::size_t frameLimit, double scale,
               const std::vector<std::string> &benches,
               std::size_t workers)
{
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();
    char fingerprint[20];
    std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                  static_cast<unsigned long long>(
                      config.fingerprint()));

    util::Json fields = util::Json::object();
    fields.set("tool", "campaign");
    fields.set("threads", threads);
    fields.set("workers", workers);
    fields.set("frame_limit", frameLimit);
    fields.set("scale", scale);
    fields.set("gpu_profile", "evaluation");
    util::Json aliases = util::Json::array();
    for (const std::string &alias : benches)
        aliases.push(alias);
    fields.set("benches", std::move(aliases));
    fields.set("fingerprint", fingerprint);
    fields.set("env", envManifest());
    fields.set("mem_mode", gpusim::kMemMode);
    ledger.event("run_start", std::move(fields));
}

/** One `phase` event per obs::Span name, in name order. */
void
ledgerPhases(obs::RunLedger &ledger)
{
    for (const obs::SpanTotal &span :
         obs::spanTotals(obs::processRegistry())) {
        util::Json fields = util::Json::object();
        fields.set("name", span.name);
        fields.set("seconds", span.seconds);
        fields.set("entries", span.entries);
        ledger.event("phase", std::move(fields));
    }
}

/** The `attrib` event from the merged obs.host.* counters. */
void
ledgerAttrib(obs::RunLedger &ledger, double wallSeconds)
{
    const obs::HostAttribSnapshot snap = obs::readHostAttrib();
    util::Json domains = util::Json::object();
    for (std::size_t d = 0; d < obs::kHostDomainCount; ++d)
        domains.set(
            obs::hostDomainName(static_cast<obs::HostDomain>(d)),
            snap.seconds[d]);
    util::Json fields = util::Json::object();
    fields.set("domains", std::move(domains));
    fields.set("coverage", snap.coverage());
    fields.set("wall_seconds", wallSeconds);
    ledger.event("attrib", std::move(fields));
}

/** Fixed-width attribution table for --attrib. */
void
printAttrib()
{
    const obs::HostAttribSnapshot snap = obs::readHostAttrib();
    const double total = snap.totalSeconds();
    if (total <= 0.0) {
        std::printf("host attribution: nothing attributed\n");
        return;
    }
    std::printf("host attribution (%.3f s attributed, named "
                "coverage %.1f%%):\n",
                total, snap.coverage() * 100.0);
    for (std::size_t d = 0; d < obs::kHostDomainCount; ++d) {
        if (snap.seconds[d] == 0.0 && snap.entries[d] == 0)
            continue;
        std::printf("  %-10s %10.3f s %5.1f%% %12llu entries\n",
                    obs::hostDomainName(
                        static_cast<obs::HostDomain>(d)),
                    snap.seconds[d],
                    snap.seconds[d] / total * 100.0,
                    static_cast<unsigned long long>(
                        snap.entries[d]));
    }
}

/**
 * Write the --timeline Chrome JSON. Telemetry never fails a run that
 * produced its report: a failed write warns, naming the path.
 */
void
writeTimelineIfEnabled(const Options &opt)
{
    if (opt.timeline.empty())
        return;
    const std::size_t workers = exec::Pool::global().workers();
    const obs::TimelineRecorder &timeline =
        obs::TimelineRecorder::global();
    if (auto written =
            obs::writeTimelineChrome(opt.timeline, timeline, workers);
        !written.ok()) {
        std::fprintf(stderr, "cannot write timeline '%s': %s\n",
                     opt.timeline.c_str(),
                     written.error().message.c_str());
        return;
    }
    std::printf("timeline: %s (%zu spans, %zu worker tracks)\n",
                opt.timeline.c_str(), timeline.size(), workers);
}

int
runCampaignDiff(const Options &opt)
{
    auto a = batch::CampaignReport::load(opt.diffA);
    if (!a.ok()) {
        std::fprintf(stderr, "cannot load report '%s': %s\n",
                     opt.diffA.c_str(), a.error().message.c_str());
        return kExitLoadFailure;
    }
    auto b = batch::CampaignReport::load(opt.diffB);
    if (!b.ok()) {
        std::fprintf(stderr, "cannot load report '%s': %s\n",
                     opt.diffB.c_str(), b.error().message.c_str());
        return kExitLoadFailure;
    }
    const std::vector<std::string> diffs = batch::diffReports(*a, *b);
    if (diffs.empty()) {
        std::printf("reports match (modulo host-side fields): %s "
                    "== %s\n",
                    opt.diffA.c_str(), opt.diffB.c_str());
        return kExitOk;
    }
    std::fprintf(stderr, "reports differ (%zu fields):\n",
                 diffs.size());
    for (const std::string &diff : diffs)
        std::fprintf(stderr, "  %s\n", diff.c_str());
    return kExitDiffMismatch;
}

/** The human-readable campaign table (campaign and submit). */
void
printCampaignReport(const batch::CampaignReport &report)
{
    std::printf("# campaign: %zu benchmarks, %zu threads, "
                "mean reduction %.1fx, suite reduction %.1fx, pool "
                "utilization %.0f%%\n",
                report.benchmarks.size(), report.threads,
                report.meanReduction, report.suiteReduction,
                report.poolUtilization * 100.0);
    std::printf("%-10s %8s %4s %6s %10s %8s %8s %8s %8s  %s\n",
                "benchmark", "frames", "k", "reps", "reduction",
                "cycles%", "dram%", "l2%", "tile%", "cache");
    for (const batch::BenchmarkReport &b : report.benchmarks)
        std::printf("%-10s %8zu %4zu %6zu %9.1fx %8.3f %8.3f %8.3f "
                    "%8.3f  %s\n",
                    b.alias.c_str(), b.frames, b.chosenK,
                    b.representatives, b.reduction, b.errorPercent[0],
                    b.errorPercent[1], b.errorPercent[2],
                    b.errorPercent[3], b.cacheStatus.c_str());
    for (const batch::QuarantinedShard &q : report.quarantined)
        std::fprintf(stderr,
                     "quarantined: shard %zu %s [%zu,%zu) after %zu "
                     "attempts: %s\n",
                     q.shard, q.bench.c_str(), q.beginFrame,
                     q.endFrame, q.attempts, q.reason.c_str());
    if (report.degraded)
        std::fprintf(stderr,
                     "campaign DEGRADED: %zu shard(s) quarantined\n",
                     report.quarantined.size());
}

/**
 * `campaign --workers N`: the suite as one request to a Scheduler over
 * @p workers forked workers. Every supervision event, the workers'
 * shutdown worker_exit events included, lands in @p ledger.
 */
resilience::Expected<batch::CampaignReport>
runSupervised(const batch::CampaignConfig &config, std::size_t workers,
              obs::RunLedger &ledger)
{
    obs::AttribRoot attribRoot;
    obs::Span span("campaign.serve", workers);
    serve::Fleet fleet(config, workers);
    sched::Scheduler scheduler(config, sched::SchedulerConfig::fromEnv(),
                               fleet);
    sched::RequestSpec spec;
    spec.benches = config.benches;
    spec.ledger = &ledger;
    if (auto admitted = scheduler.admit(spec); !admitted.ok())
        return admitted.error();
    std::vector<sched::RequestResult> results =
        scheduler.runToCompletion();
    // Closing the request pipes is the workers' EOF shutdown signal;
    // their exit events still belong in this run's ledger.
    fleet.shutdown();
    for (auto &[type, fields] : fleet.drainLedgerEvents())
        ledger.event(type, std::move(fields));
    return std::move(results.front().report);
}

int
runCampaign(const Options &opt)
{
    if (!opt.diffA.empty())
        return runCampaignDiff(opt);
    batch::CampaignConfig config = batch::CampaignConfig::fromEnv();
    config.benches = splitCsvList(opt.benches);
    if (!opt.cacheDir.empty())
        config.cacheDir = opt.cacheDir;
    if (opt.scale != 1.0)
        config.scale = opt.scale;

    // Load the thresholds BEFORE the (expensive) campaign, so a typoed
    // path fails in seconds, not hours.
    batch::Thresholds limits;
    if (!opt.check.empty()) {
        auto loaded = batch::Thresholds::load(opt.check);
        if (!loaded.ok()) {
            std::fprintf(stderr,
                         "cannot load thresholds '%s': %s\n",
                         opt.check.c_str(),
                         loaded.error().message.c_str());
            return kExitLoadFailure;
        }
        limits = *loaded;
    }

    // The ledger opens BEFORE the run: a supervised campaign streams
    // its worker_spawn/worker_exit/shard_retry/shard_quarantine events
    // live, so run_start must already be on record.
    obs::RunLedger ledger;
    const std::vector<std::string> aliases =
        config.benches.empty() ? workloads::benchmarkNames()
                               : config.benches;
    ledgerRunStart(ledger, exec::Pool::global().workers(),
                   config.frameLimit, config.scale, aliases, opt.workers);

    auto result = opt.workers > 0
                      ? runSupervised(config, opt.workers, ledger)
                      : batch::Campaign(config).run();
    if (!result.ok()) {
        const bool load =
            result.error().code == resilience::Errc::UnknownAlias;
        std::fprintf(stderr, "campaign failed: %s\n",
                     result.error().message.c_str());
        return load ? kExitLoadFailure : kExitRuntime;
    }

    if (auto saved = result->save(opt.report); !saved.ok()) {
        std::fprintf(stderr, "cannot write report '%s': %s\n",
                     opt.report.c_str(),
                     saved.error().message.c_str());
        return kExitRuntime;
    }

    printCampaignReport(*result);
    std::printf("report: %s\n", opt.report.c_str());
    obs::processRegistry().dump(std::cout, "campaign.suite.*");

    std::vector<std::string> violations;
    if (!opt.check.empty())
        violations = batch::checkThresholds(*result, limits);

    // The rest of the ledger: per-benchmark cache provenance and
    // result rows, the wall-clock phase split, attribution (when on)
    // and the suite metrics — assembled post-hoc from the report and
    // the merged registries, written next to the report.
    for (const batch::BenchmarkReport &b : result->benchmarks) {
        util::Json fields = util::Json::object();
        fields.set("bench", b.alias);
        fields.set("status", b.cacheStatus);
        fields.set("resumed_frames", b.resumedFrames);
        ledger.event("cache", std::move(fields));
    }
    ledgerPhases(ledger);
    for (const batch::BenchmarkReport &b : result->benchmarks) {
        util::Json fields = util::Json::object();
        fields.set("alias", b.alias);
        fields.set("frames", b.frames);
        fields.set("chosen_k", b.chosenK);
        fields.set("representatives", b.representatives);
        fields.set("reduction", b.reduction);
        fields.set("wall_seconds", b.wallSeconds);
        fields.set("cache_status", b.cacheStatus);
        util::Json error = util::Json::object();
        for (std::size_t m = 0; m < batch::kNumMetrics; ++m)
            error.set(batch::kMetricKeys[m], b.errorPercent[m]);
        fields.set("error", std::move(error));
        fields.set("mem_mode", gpusim::kMemMode);
        ledger.event("bench", std::move(fields));
    }
    if (obs::hostAttribEnabled())
        ledgerAttrib(ledger, result->wallSeconds);
    {
        util::Json values = util::Json::object();
        values.set("mean_reduction", result->meanReduction);
        values.set("suite_reduction", result->suiteReduction);
        values.set("total_frames", result->totalFrames);
        values.set("total_representatives",
                   result->totalRepresentatives);
        values.set("pool_utilization", result->poolUtilization);
        util::Json fields = util::Json::object();
        fields.set("values", std::move(values));
        ledger.event("metrics", std::move(fields));
    }
    {
        util::Json fields = util::Json::object();
        fields.set("wall_seconds", result->wallSeconds);
        fields.set("status", result->degraded ? "degraded"
                             : violations.empty()
                                 ? "ok"
                                 : "threshold-breach");
        ledger.event("run_end", std::move(fields));
    }
    const std::string ledgerPath =
        !opt.ledger.empty() ? opt.ledger
                            : defaultLedgerPath(opt.report);
    if (auto saved = ledger.save(ledgerPath); !saved.ok())
        std::fprintf(stderr, "cannot write ledger '%s': %s\n",
                     ledgerPath.c_str(),
                     saved.error().message.c_str());
    else
        std::printf("ledger: %s (%zu events)\n", ledgerPath.c_str(),
                    ledger.size());

    writeTimelineIfEnabled(opt);
    if (obs::hostAttribEnabled())
        printAttrib();

    if (!violations.empty()) {
        std::fprintf(stderr, "threshold check FAILED against %s:\n",
                     opt.check.c_str());
        for (const std::string &violation : violations)
            std::fprintf(stderr, "  %s\n", violation.c_str());
        // Degraded wins: a quarantined shard means the report itself
        // is incomplete, which subsumes any threshold reading.
        return result->degraded ? kExitDegraded
                                : kExitThresholdBreach;
    }
    if (!opt.check.empty())
        std::printf("threshold check passed against %s\n",
                    opt.check.c_str());
    return result->degraded ? kExitDegraded : kExitOk;
}

int
runServe(const Options &opt)
{
    if (opt.socket.empty()) {
        std::fprintf(stderr, "serve: --socket PATH is required\n");
        return kExitUsage;
    }
    serve::ServiceConfig config;
    config.socketPath = opt.socket;
    config.maxRequests = opt.maxRequests;
    config.base = batch::CampaignConfig::fromEnv();
    config.base.benches = splitCsvList(opt.benches);
    if (!opt.cacheDir.empty())
        config.base.cacheDir = opt.cacheDir;
    if (opt.scale != 1.0)
        config.base.scale = opt.scale;
    config.workers = opt.workers;
    // Env first (MEGSIM_SCHED_*, MEGSIM_SHARD_*), explicit flags
    // override.
    config.scheduler = sched::SchedulerConfig::fromEnv();
    if (opt.maxInflight > 0)
        config.scheduler.maxInflight = opt.maxInflight;
    const int rc =
        serve::runService(config) == 0 ? kExitOk : kExitRuntime;
    // --timeline: the request.wait/request.service lanes are the
    // per-request view of the whole serving session.
    writeTimelineIfEnabled(opt);
    return rc;
}

int
runSubmit(const Options &opt)
{
    if (opt.socket.empty()) {
        std::fprintf(stderr, "submit: --socket PATH is required\n");
        return kExitUsage;
    }
    util::Json request = util::Json::object();
    request.set("type", "campaign");
    if (!opt.benches.empty()) {
        util::Json aliases = util::Json::array();
        for (const std::string &alias : splitCsvList(opt.benches))
            aliases.push(alias);
        request.set("benches", std::move(aliases));
    }
    if (!opt.tenant.empty())
        request.set("tenant", opt.tenant);
    if (opt.weightSet)
        request.set("weight", opt.weight);

    auto reply = serve::submit(opt.socket, request);
    if (!reply.ok()) {
        std::fprintf(stderr, "submit failed: %s\n",
                     reply.error().message.c_str());
        return kExitRuntime;
    }
    const util::Json *status = reply->find("status");
    const std::string state =
        status ? status->asString() : std::string("?");
    if (state == "rejected") {
        // Backpressure: the scheduler queue is full. Distinct exit
        // code so callers can retry instead of treating it as failure.
        const util::Json *message = reply->find("message");
        std::fprintf(stderr, "submit rejected: %s\n",
                     message ? message->asString().c_str()
                             : "queue full");
        return kExitQueueFull;
    }
    if (state == "error") {
        const util::Json *message = reply->find("message");
        std::fprintf(stderr, "served campaign failed: %s\n",
                     message ? message->asString().c_str()
                             : "(no message)");
        return kExitRuntime;
    }

    const util::Json *reportJson = reply->find("report");
    if (!reportJson) {
        std::fprintf(stderr, "submit: reply carries no report\n");
        return kExitRuntime;
    }
    auto report = batch::CampaignReport::fromJson(*reportJson);
    if (!report.ok()) {
        std::fprintf(stderr, "submit: malformed report: %s\n",
                     report.error().message.c_str());
        return kExitRuntime;
    }
    printCampaignReport(*report);
    if (opt.outSet) {
        if (auto saved = report->save(opt.report); !saved.ok()) {
            std::fprintf(stderr, "cannot write report '%s': %s\n",
                         opt.report.c_str(),
                         saved.error().message.c_str());
            return kExitRuntime;
        }
        std::printf("report: %s\n", opt.report.c_str());
    }
    if (!opt.ledger.empty()) {
        const util::Json *ledgerText = reply->find("ledger");
        if (ledgerText && ledgerText->isString()) {
            if (std::FILE *f =
                    std::fopen(opt.ledger.c_str(), "w")) {
                const std::string &text = ledgerText->asString();
                std::fwrite(text.data(), 1, text.size(), f);
                std::fclose(f);
                std::printf("ledger: %s\n", opt.ledger.c_str());
            } else {
                std::fprintf(stderr, "cannot write ledger '%s'\n",
                             opt.ledger.c_str());
            }
        }
    }
    return state == "degraded" ? kExitDegraded : kExitOk;
}

int
runLedgerValidate(const Options &opt)
{
    if (opt.validate.empty()) {
        std::fprintf(stderr,
                     "ledger: --validate PATH is required\n");
        return kExitUsage;
    }
    auto events = obs::RunLedger::load(opt.validate);
    if (!events.ok()) {
        const resilience::Errc code = events.error().code;
        std::fprintf(stderr, "ledger '%s' invalid: %s\n",
                     opt.validate.c_str(),
                     events.error().message.c_str());
        // Unreadable file = load failure; readable-but-wrong = 7.
        return code == resilience::Errc::NotFound ||
                       code == resilience::Errc::Io
                   ? kExitLoadFailure
                   : kExitLedgerInvalid;
    }
    std::printf("ledger ok: %s (%zu events)\n", opt.validate.c_str(),
                events->size());
    return kExitOk;
}

int
runStats(const Options &opt)
{
    auto built = workloads::tryBuildBenchmark(opt.bench, opt.scale,
                                              opt.frameBegin + 1);
    if (!built.ok()) {
        std::fprintf(stderr, "cannot load benchmark '%s': %s\n",
                     opt.bench.c_str(),
                     built.error().message.c_str());
        return kExitLoadFailure;
    }
    const gfx::SceneTrace scene = std::move(*built);
    if (opt.frameBegin >= scene.numFrames()) {
        std::fprintf(stderr, "frame %zu outside the %zu-frame scene\n",
                     opt.frameBegin, scene.numFrames());
        return kExitLoadFailure;
    }
    const gpusim::GpuConfig config =
        opt.baseline ? gpusim::GpuConfig::baseline()
                     : gpusim::GpuConfig::evaluationScaled();
    gpusim::SceneBinding binding(scene);
    gpusim::TimingSimulator timing(config, binding);
    const gpusim::FrameStats stats =
        timing.simulate(scene.frames[opt.frameBegin]);

    std::printf("# %s frame %zu: %llu cycles, ipc %.2f\n",
                opt.bench.c_str(), opt.frameBegin,
                static_cast<unsigned long long>(stats.cycles),
                stats.ipc());
    timing.stats().dump(std::cout, opt.filter);
    return 0;
}

int
runTrace(const Options &opt)
{
    auto built = workloads::tryBuildBenchmark(opt.bench, opt.scale,
                                              opt.frameEnd);
    if (!built.ok()) {
        std::fprintf(stderr, "cannot load benchmark '%s': %s\n",
                     opt.bench.c_str(),
                     built.error().message.c_str());
        return kExitLoadFailure;
    }
    const gfx::SceneTrace scene = std::move(*built);
    if (opt.frameBegin >= scene.numFrames()) {
        std::fprintf(stderr, "frame %zu outside the %zu-frame scene\n",
                     opt.frameBegin, scene.numFrames());
        return kExitLoadFailure;
    }
    const gpusim::GpuConfig config =
        opt.baseline ? gpusim::GpuConfig::baseline()
                     : gpusim::GpuConfig::evaluationScaled();

    obs::ObsConfig obsConfig = obs::ObsConfig::fromEnv();
    obsConfig.traceEnabled = true;

    gpusim::SceneBinding binding(scene);
    gpusim::TimingSimulator timing(config, binding, obsConfig);
    for (std::size_t f = opt.frameBegin;
         f < opt.frameEnd && f < scene.numFrames(); ++f)
        timing.simulate(scene.frames[f]);

    const obs::TraceBuffer &buf = timing.trace();
    if (buf.droppedCount() > 0)
        std::fprintf(stderr,
                     "note: ring dropped %llu oldest events (capacity "
                     "%zu); raise MEGSIM_TRACE_CAPACITY to keep them\n",
                     static_cast<unsigned long long>(
                         buf.droppedCount()),
                     buf.capacity());

    if (auto written =
            obs::writeChromeTrace(opt.out, buf, config.frequencyMhz);
        !written.ok()) {
        std::fprintf(stderr, "cannot write trace '%s': %s\n",
                     opt.out.c_str(), written.error().message.c_str());
        return kExitRuntime;
    }
    std::printf("wrote %zu events to %s\n", buf.size(),
                opt.out.c_str());
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
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parse(argc, argv, opt))
        return usage(argv[0]);
    if (opt.threads)
        exec::Pool::setConfiguredThreads(opt.threads);
    // Single-threaded setup: the telemetry flags must be decided
    // before the pool spins up and the run starts timing.
    if (opt.attrib)
        obs::setHostAttribEnabled(true);
    if (!opt.timeline.empty())
        obs::setTimelineEnabled(true);
    if (opt.command == "stats")
        return runStats(opt);
    if (opt.command == "trace")
        return runTrace(opt);
    if (opt.command == "resume")
        return runResume(opt);
    if (opt.command == "campaign")
        return runCampaign(opt);
    if (opt.command == "serve")
        return runServe(opt);
    if (opt.command == "submit")
        return runSubmit(opt);
    if (opt.command == "ledger")
        return runLedgerValidate(opt);
    return runVerifyCache(opt);
}
