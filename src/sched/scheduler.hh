/**
 * @file
 * Multi-tenant campaign scheduler: a shard-granular run queue over one
 * shared serve::Fleet.
 *
 * The Scheduler is the supervision loop of every supervised campaign:
 * `megsim-cli campaign --workers N` admits one request, and the
 * request service (`megsim-cli serve`) admits up to maxInflight at
 * once. It loads each request's suite through batch::loadSuite(),
 * decomposes whatever needs regeneration into benchmark×frame-range
 * shards, and leases fleet workers one shard at a time under weighted
 * fair share (sched/policy.hh) — so shards from *different* requests
 * interleave on the same worker processes instead of one campaign
 * monopolizing the fleet while the queue idles.
 *
 * Supervision: a worker that crashes, hangs past its shard deadline or
 * sends a corrupt reply costs its shard one attempt; the shard resumes
 * from its journal on a fresh worker after an exponential backoff with
 * deterministic jitter. A shard that exhausts its retry cap is
 * quarantined: its benchmark is dropped from the request's rows and
 * the report lists it under `quarantined_shards`.
 *
 * Isolation is per request, end to end: every request carries its own
 * optional StatsRegistry (applied as a ProcessRegistryOverride around
 * that request's load/analysis work) and its own optional RunLedger
 * (admission, dispatch decisions, retries, quarantines, completion all
 * land there, and fleet spawn/exit events are routed to the affected
 * request). A poison shard quarantines only its own request — sibling
 * shards of the same bench are cancelled, the request completes
 * degraded, and every other request is untouched. Because frames
 * simulate cold, shard rows reassemble in frame order, and analysis
 * runs through batch::analyzeBenchmark, each request's report is
 * bit-identical per bench to a solo run at any worker count and any
 * interleaving.
 *
 * Admission is bounded: admit() beyond maxInflight returns Errc::Busy
 * ("queue full") so callers can push backpressure to clients instead
 * of buffering unboundedly. Observability: sched.* counters in the
 * ambient stats registry, request_admit / sched_dispatch /
 * request_done ledger events, and per-request "request.wait" /
 * "request.service" spans on the kRequestTrackBase+id timeline lanes.
 */

#ifndef MSIM_SCHED_SCHEDULER_HH
#define MSIM_SCHED_SCHEDULER_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "batch/campaign.hh"
#include "obs/ledger.hh"
#include "obs/stats.hh"
#include "serve/fleet.hh"

namespace msim::sched
{

/** How requests are cut into shards and how failed shards retry. */
struct ShardConfig
{
    /** Frames per shard (smaller = finer-grained recovery). */
    std::size_t shardFrames = 32;
    /** Retries per shard before quarantine. */
    std::size_t retryCap = 3;
    /** Exponential backoff: base, doubling per failure, capped. */
    std::size_t backoffBaseMs = 25;
    std::size_t backoffCapMs = 1000;
    /**
     * Per-shard wall deadline in ms; 0 derives one from the frame
     * watchdog budget (MEGSIM_FRAME_BUDGET_MS) or falls back to a
     * generous default.
     */
    std::size_t shardDeadlineMs = 0;
    /** Seeds the deterministic backoff jitter. */
    std::uint64_t seed = 1;

    /**
     * Defaults plus MEGSIM_SHARD_FRAMES (a whole number >= 1),
     * MEGSIM_SHARD_RETRIES and MEGSIM_SHARD_DEADLINE_MS (whole
     * numbers >= 0). Any other value warns, naming the variable and
     * the value, and the default applies.
     */
    static ShardConfig fromEnv();
};

struct SchedulerConfig
{
    /** Bounded run queue: admit() past this returns Errc::Busy. */
    std::size_t maxInflight = 8;
    ShardConfig shard;

    /** Defaults plus the shard settings of ShardConfig::fromEnv(). */
    static SchedulerConfig fromEnv();
};

/** One campaign request as submitted to the scheduler. */
struct RequestSpec
{
    /** Benchmark aliases; empty = the full Table II suite. */
    std::vector<std::string> benches;
    /** Fair-share accounting bucket. */
    std::string tenant = "default";
    /** Fair-share weight: a weight-2 tenant is charged half the
     *  virtual time per dispatch, so it gets twice the share. */
    double weight = 1.0;
    /** Optional per-request ledger: receives this request's admit /
     *  dispatch / retry / quarantine / done events. */
    obs::RunLedger *ledger = nullptr;
    /** Optional per-request stats registry, applied as an override
     *  around this request's load and analysis work; nullptr uses the
     *  ambient registry (solo in-process behaviour). */
    obs::StatsRegistry *registry = nullptr;
};

/** A finished request: its report plus the scheduler's timings. */
struct RequestResult
{
    std::size_t id = 0;
    std::string tenant;
    /** "ok" or "degraded" (quarantined shards). */
    std::string status;
    /** Admission to first shard dispatch (or to analysis start when
     *  every bench was cache-fresh and nothing dispatched). */
    double queueWaitSeconds = 0.0;
    /** First dispatch (or analysis start) to completion. */
    double serviceSeconds = 0.0;
    batch::CampaignReport report;
};

class Scheduler
{
  public:
    /**
     * @p base supplies the shared campaign settings (cache dir,
     * scale, frame limit, analysis config); per-request benches come
     * from each RequestSpec. @p fleet outlives the scheduler.
     */
    Scheduler(batch::CampaignConfig base, SchedulerConfig config,
              serve::Fleet &fleet);
    ~Scheduler();
    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /**
     * Admit one request: load its scenes, probe its caches, shard
     * whatever needs (re)generation, and enter it into the run queue.
     * Returns the request id, Errc::Busy when the queue is full, or
     * the first load error (unknown alias).
     */
    resilience::Expected<std::size_t> admit(const RequestSpec &spec);

    /**
     * One scheduling round: top up the fleet, dispatch eligible
     * shards by fair share, wait up to @p timeoutMs for replies,
     * recover failures, and finalize every request whose shards are
     * all terminal. Returns the requests that completed this round.
     */
    std::vector<RequestResult> step(int timeoutMs);

    /** Admitted requests not yet finalized. */
    std::size_t inflight() const { return active_.size(); }
    bool busy() const { return !active_.empty(); }

    /** step(50) until the queue drains; all results in finish order. */
    std::vector<RequestResult> runToCompletion();

    const SchedulerConfig &config() const { return config_; }

  private:
    struct Item;
    struct Shard;
    struct Request;

    void addShards(Request &request, std::size_t item);
    void dispatchEligible(double now);
    void resolveLeases();
    void routeFleetEvents();
    void handleEvent(const serve::Fleet::Event &event);
    void failShard(Request &request, Shard &shard,
                   const std::string &reason);
    RequestResult finalize(std::unique_ptr<Request> request);
    double shardDeadlineSeconds(const Shard &shard) const;

    batch::CampaignConfig base_;
    SchedulerConfig config_;
    serve::Fleet &fleet_;
    obs::StatsRegistry &ambient_;
    /** MEGSIM_FRAME_BUDGET_MS in seconds (0 = off), read once. */
    double frameWallBudget_;
    std::vector<std::unique_ptr<Request>> active_;
    /** Global shard id → (owning request, index into its shards). */
    std::map<std::size_t, std::pair<Request *, std::size_t>> owner_;
    /**
     * Cache key → request currently regenerating that ground truth.
     * A later request targeting the same (scene, GPU config) leases
     * the in-flight regeneration instead of re-running it: it gets no
     * shards of its own, waits for the producer to finalize (which
     * stores the cache), then loads the verified cache. Closes the
     * DESIGN.md §6j duplicate-regeneration journal race.
     */
    std::map<std::uint64_t, std::size_t> regenOwner_;
    /** Tenant → consumed virtual time (fair-share state). */
    std::map<std::string, double> tenantVirtual_;
    std::size_t nextRequestId_ = 0;
    std::size_t nextShardId_ = 0;
};

} // namespace msim::sched

#endif // MSIM_SCHED_SCHEDULER_HH
