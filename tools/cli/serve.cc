#include <cstdio>
#include <string>

#include "batch/campaign.hh"
#include "cli.hh"
#include "resilience/artifact.hh"
#include "sched/scheduler.hh"
#include "serve/service.hh"
#include "util/json.hh"

namespace msim::cli
{

/**
 * Listen on a unix-domain socket and serve campaign requests
 * concurrently, by weighted fair share over tenants, against one
 * shared worker fleet and cache store, each with its own stats
 * registry and run ledger. Frames of any other type are refused.
 * --timeline PATH writes the session's host timeline, with one lane
 * per request.
 */
int
runServe(const Options &opt)
{
    serve::ServiceConfig config;
    config.socketPath = opt.socket;
    config.maxRequests = opt.maxRequests;
    config.base = batch::CampaignConfig::fromEnv();
    config.base.benches = opt.benches;
    if (!opt.cacheDir.empty())
        config.base.cacheDir = opt.cacheDir;
    if (opt.scale != 1.0)
        config.base.scale = opt.scale;
    config.workers = opt.workers;
    // Env first (MEGSIM_SHARD_*), explicit flags override.
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

/**
 * Send one campaign request to a running `serve` and print the
 * returned report; exits 8 if the served campaign degraded. The fleet
 * belongs to the server (`serve --workers`). --ledger writes the
 * request's ledger from the reply, atomically; a ledger that cannot be
 * written, or a reply without one, warns and keeps the exit code.
 */
int
runSubmit(const Options &opt)
{
    util::Json request = util::Json::object();
    request.set("type", "campaign");
    if (!opt.benches.empty()) {
        util::Json aliases = util::Json::array();
        for (const std::string &alias : opt.benches)
            aliases.push(alias);
        request.set("benches", std::move(aliases));
    }
    if (!opt.tenant.empty())
        request.set("tenant", opt.tenant);
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
    if (!opt.out.empty()) {
        if (auto saved = report->save(opt.out); !saved.ok()) {
            std::fprintf(stderr, "cannot write report '%s': %s\n",
                         opt.out.c_str(), saved.error().message.c_str());
            return kExitRuntime;
        }
        std::printf("report: %s\n", opt.out.c_str());
    }
    if (!opt.ledger.empty()) {
        const util::Json *ledger = reply->find("ledger");
        if (!ledger || !ledger->isString())
            std::fprintf(stderr,
                         "submit: reply carries no ledger; '%s' not "
                         "written\n",
                         opt.ledger.c_str());
        else if (auto written = resilience::atomicWriteFile(
                     opt.ledger, ledger->asString());
                 !written.ok())
            std::fprintf(stderr, "cannot write ledger '%s': %s\n",
                         opt.ledger.c_str(),
                         written.error().message.c_str());
        else
            std::printf("ledger: %s\n", opt.ledger.c_str());
    }
    return state == "degraded" ? kExitDegraded : kExitOk;
}

} // namespace msim::cli
