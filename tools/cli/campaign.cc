#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "batch/campaign.hh"
#include "cli.hh"
#include "exec/pool.hh"
#include "gpusim/gpu_config.hh"
#include "obs/attrib.hh"
#include "obs/ledger.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "sched/scheduler.hh"
#include "serve/fleet.hh"
#include "util/json.hh"
#include "workloads/workloads.hh"

namespace msim::cli
{
namespace
{

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
        "MEGSIM_THREADS", "MEGSIM_FRAME_LIMIT", "MEGSIM_SCALE",
        "MEGSIM_CACHE_DIR",
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

} // namespace

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
 * Compare two campaign reports modulo the documented host-side fields
 * (wall clocks, pool utilization, thread count, cache provenance).
 * Prints every difference; exits 6 on mismatch. A report with another
 * schema tag or a mem_mode other than "exact" (written by a removed
 * mode) fails to load and exits 3, naming the file.
 */
int
runCampaignDiff(const Options &opt)
{
    const auto &[pathA, pathB] = opt.diff;
    auto a = batch::CampaignReport::load(pathA);
    if (!a.ok()) {
        std::fprintf(stderr, "cannot load report '%s': %s\n",
                     pathA.c_str(), a.error().message.c_str());
        return kExitLoadFailure;
    }
    auto b = batch::CampaignReport::load(pathB);
    if (!b.ok()) {
        std::fprintf(stderr, "cannot load report '%s': %s\n",
                     pathB.c_str(), b.error().message.c_str());
        return kExitLoadFailure;
    }
    const std::vector<std::string> diffs = batch::diffReports(*a, *b);
    if (diffs.empty()) {
        std::printf("reports match (modulo host-side fields): %s "
                    "== %s\n",
                    pathA.c_str(), pathB.c_str());
        return kExitOk;
    }
    std::fprintf(stderr, "reports differ (%zu fields):\n",
                 diffs.size());
    for (const std::string &diff : diffs)
        std::fprintf(stderr, "  %s\n", diff.c_str());
    return kExitDiffMismatch;
}

/**
 * Run the MEGsim pipeline for the suite through one shared worker pool
 * and write the accuracy report CI gates on (--check: exit 5 on a
 * breached threshold) and a megsim-run-v1 run ledger next to it.
 * --workers N regenerates ground truth as one request to the
 * crash-isolated scheduler over N forked workers; a quarantined shard
 * exits 8. --attrib prints and records where the host seconds went;
 * --timeline writes the per-worker host timeline.
 */
int
runCampaign(const Options &opt)
{
    batch::CampaignConfig config = batch::CampaignConfig::fromEnv();
    config.benches = opt.benches;
    if (!opt.cacheDir.empty())
        config.cacheDir = opt.cacheDir;
    if (opt.scale != 1.0)
        config.scale = opt.scale;
    const std::string report =
        opt.out.empty() ? "campaign.json" : opt.out;

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

    if (auto saved = result->save(report); !saved.ok()) {
        std::fprintf(stderr, "cannot write report '%s': %s\n",
                     report.c_str(), saved.error().message.c_str());
        return kExitRuntime;
    }

    printCampaignReport(*result);
    std::printf("report: %s\n", report.c_str());
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
        !opt.ledger.empty() ? opt.ledger : defaultLedgerPath(report);
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

/**
 * Strictly round-trip a run ledger through the util/json parser and
 * the megsim-run-v1 schema; exits 7 on any unknown event, unknown
 * field or missing required field.
 */
int
runLedgerValidate(const Options &opt)
{
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

} // namespace msim::cli
