/**
 * @file
 * Campaign request service: a unix-domain socket admitting queued
 * campaign requests (`megsim-cli serve --socket` / `megsim-cli
 * submit`). Requests are one JSON frame each —
 *
 *   {"type": "campaign", "benches": ["hcr", ...],
 *    "tenant": "team-a", "weight": 2.0}
 *
 * — and are admitted into a sched::Scheduler over ONE shared worker
 * fleet and ONE shared cache store, up to maxInflight at a time, so
 * shards from different requests interleave on the same workers by
 * weighted fair share instead of serving strictly in arrival order.
 * A frame of any other type is refused with an error reply and admits
 * nothing.
 * Each request runs with its own stats registry
 * (obs::ProcessRegistryOverride) and its own megsim-run-v1 ledger, so
 * concurrent campaigns cannot bleed counters or events into each
 * other while still sharing every verified ground-truth cache. The
 * reply frame carries the full report, the serialized ledger, and a
 * status of "ok", "degraded" (quarantined shards) or "error".
 *
 * Backpressure: a request arriving with maxInflight requests already
 * in flight is refused with status "rejected" (submit exits with the
 * distinct queue-full code) instead of queueing unboundedly. A
 * request arriving while the service drains after --max-requests gets
 * a clean "service shutting down" error reply — never a hung socket.
 */

#ifndef MSIM_SERVE_SERVICE_HH
#define MSIM_SERVE_SERVICE_HH

#include <cstddef>
#include <string>

#include "batch/campaign.hh"
#include "sched/scheduler.hh"
#include "util/json.hh"

namespace msim::serve
{

struct ServiceConfig
{
    std::string socketPath;
    /** Stop after admitting this many requests; 0 = serve forever. */
    std::size_t maxRequests = 0;
    /** Base campaign settings; a request's fields override these. */
    batch::CampaignConfig base;
    /** Size of the shared fleet (0 is clamped to 1 — the fleet is
     *  always supervised). */
    std::size_t workers = 1;
    /** Admission cap (maxInflight: further requests are rejected as
     *  queue full) and the shard settings. */
    sched::SchedulerConfig scheduler;
};

/**
 * Bind, listen and serve until maxRequests (or forever). Returns 0 on
 * a clean shutdown, 1 on a socket-level failure. The socket file is
 * unlinked on exit, after every backlogged client has been answered.
 */
int runService(const ServiceConfig &config);

/**
 * Client side: connect to @p socketPath, send @p request as one
 * frame, and block for the reply frame.
 */
resilience::Expected<util::Json>
submit(const std::string &socketPath, const util::Json &request);

} // namespace msim::serve

#endif // MSIM_SERVE_SERVICE_HH
