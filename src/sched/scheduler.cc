#include "sched/scheduler.hh"

#include <unistd.h>

#include <algorithm>
#include <optional>

#include "core/megsim.hh"
#include "obs/profile.hh"
#include "obs/timeline.hh"
#include "resilience/watchdog.hh"
#include "sched/policy.hh"
#include "serve/protocol.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "util/env.hh"

namespace msim::sched
{

using resilience::Errc;
using resilience::errorf;
using resilience::Expected;
using util::Json;

namespace
{

/** Parse one [[...], ...] rows array back into vectors of doubles. */
Expected<std::vector<std::vector<double>>>
rowsFromJson(const Json *rows, const char *what)
{
    if (!rows || !rows->isArray())
        return errorf(Errc::BadFormat,
                      "shard reply: missing '%s' rows", what);
    std::vector<std::vector<double>> out;
    out.reserve(rows->size());
    for (const Json &row : rows->items()) {
        if (!row.isArray())
            return errorf(Errc::BadFormat,
                          "shard reply: '%s' row is not an array",
                          what);
        std::vector<double> values;
        values.reserve(row.size());
        for (const Json &v : row.items()) {
            if (!v.isNumber())
                return errorf(
                    Errc::BadFormat,
                    "shard reply: non-numeric '%s' cell", what);
            values.push_back(v.asNumber());
        }
        out.push_back(std::move(values));
    }
    return out;
}

/** Record one span on a request's sparse timeline lane. */
void
recordRequestSpan(std::size_t requestId, const char *name,
                  double begin, double end, std::uint64_t arg,
                  std::string detail)
{
    if (!obs::timelineEnabled())
        return;
    obs::TimelineRecorder lane(
        obs::kRequestTrackBase +
        static_cast<std::uint32_t>(requestId));
    lane.record(name, begin, end, arg, std::move(detail));
    obs::TimelineRecorder::global().mergeFrom(lane);
}

} // namespace

ShardConfig
ShardConfig::fromEnv()
{
    ShardConfig config;
    config.shardFrames = static_cast<std::size_t>(util::numberFromEnv(
        "MEGSIM_SHARD_FRAMES", util::NumberRule::Count,
        static_cast<double>(config.shardFrames), "using the default"));
    config.retryCap = static_cast<std::size_t>(util::numberFromEnv(
        "MEGSIM_SHARD_RETRIES", util::NumberRule::Whole,
        static_cast<double>(config.retryCap), "using the default"));
    config.shardDeadlineMs =
        static_cast<std::size_t>(util::numberFromEnv(
            "MEGSIM_SHARD_DEADLINE_MS", util::NumberRule::Whole,
            static_cast<double>(config.shardDeadlineMs),
            "deriving the deadline"));
    return config;
}

SchedulerConfig
SchedulerConfig::fromEnv()
{
    SchedulerConfig config;
    config.shard = ShardConfig::fromEnv();
    config.maxInflight = static_cast<std::size_t>(util::numberFromEnv(
        "MEGSIM_SCHED_MAX_INFLIGHT", util::NumberRule::Count,
        static_cast<double>(config.maxInflight), "using the default"));
    return config;
}

/** One benchmark moving through a request. */
struct Scheduler::Item
{
    explicit Item(std::unique_ptr<batch::SuiteBench> b)
        : bench(std::move(b))
    {}

    std::unique_ptr<batch::SuiteBench> bench;
    bool needsRegen = false;
    bool quarantined = false;
    /** True while another request's regeneration is leased. */
    bool leased = false;
    std::uint64_t leaseKey = 0;
    std::size_t leaseProducer = 0;
};

struct Scheduler::Shard
{
    enum class State { Pending, Running, Done, Quarantined, Cancelled };

    std::size_t id = 0;   // globally unique across requests
    std::size_t item = 0; // index into the owning request's items
    std::size_t beginFrame = 0;
    std::size_t endFrame = 0;
    std::size_t attempts = 0; // failures so far; also the next
                              // attempt number sent to workers
    double eligibleAt = 0.0;  // earliest re-dispatch instant
    State state = State::Pending;
    std::size_t resumed = 0;
    std::string lastReason;
    std::vector<std::vector<double>> statsRows;
    std::vector<std::vector<double>> activityRows;
};

struct Scheduler::Request
{
    std::size_t id = 0;
    std::string tenant;
    double weight = 1.0;
    obs::RunLedger *ledger = nullptr;
    obs::StatsRegistry *registry = nullptr;
    std::vector<Item> items;
    std::vector<Shard> shards;
    /** Admission, read under the request's registry override. */
    batch::RunStart admitted;
    double firstDispatchAt = -1.0; // < 0 until the first dispatch

    std::size_t
    remainingShards() const
    {
        std::size_t remaining = 0;
        for (const Shard &shard : shards)
            if (shard.state == Shard::State::Pending ||
                shard.state == Shard::State::Running)
                ++remaining;
        return remaining;
    }

    void
    recordEvent(const char *type, Json fields)
    {
        if (ledger)
            ledger->event(type, std::move(fields));
    }
};

Scheduler::Scheduler(batch::CampaignConfig base,
                     SchedulerConfig config, serve::Fleet &fleet)
    : base_(std::move(base)), config_(config), fleet_(fleet),
      ambient_(obs::processRegistry()),
      frameWallBudget_(
          resilience::WatchdogConfig::fromEnv().wallBudgetSeconds)
{
    if (config_.maxInflight == 0)
        config_.maxInflight = 1;
}

Scheduler::~Scheduler() = default;

double
Scheduler::shardDeadlineSeconds(const Shard &shard) const
{
    if (config_.shard.shardDeadlineMs > 0)
        return static_cast<double>(config_.shard.shardDeadlineMs) /
               1000.0;
    if (frameWallBudget_ > 0.0) {
        // Per-frame budget times the shard size, with slack for the
        // worker's one-time scene composition.
        const double frames = static_cast<double>(
            shard.endFrame - shard.beginFrame);
        return frameWallBudget_ * frames * 4.0 + 10.0;
    }
    return 120.0;
}

Expected<std::size_t>
Scheduler::admit(const RequestSpec &spec)
{
    if (active_.size() >= config_.maxInflight) {
        ++ambient_.scalar("sched.requests_rejected",
                          "requests refused by admission control");
        return errorf(Errc::Busy,
                      "scheduler queue full (%zu in flight, cap %zu)",
                      active_.size(), config_.maxInflight);
    }

    auto request = std::make_unique<Request>();
    request->id = nextRequestId_;
    request->tenant =
        spec.tenant.empty() ? "default" : spec.tenant;
    request->weight = spec.weight > 0.0 ? spec.weight : 1.0;
    request->ledger = spec.ledger;
    request->registry = spec.registry;

    {
        std::optional<obs::ProcessRegistryOverride> isolate;
        if (request->registry)
            isolate.emplace(*request->registry);
        request->admitted = batch::RunStart::now();

        auto suite = batch::loadSuite(base_, spec.benches);
        if (!suite.ok())
            return suite.error();
        for (std::unique_ptr<batch::SuiteBench> &bench : *suite)
            request->items.emplace_back(std::move(bench));

        // Probe caches; shard the benchmarks needing regeneration
        // into frame ranges, bench-major in suite order. Shard ids
        // are globally monotone across requests, so concurrent
        // requests never collide in the fleet's lease table.
        for (std::size_t i = 0; i < request->items.size(); ++i) {
            Item &item = request->items[i];
            if (!item.bench->needsGroundTruth())
                continue;
            item.needsRegen = true;

            // Coalesce duplicate regenerations: if another in-flight
            // request is already rebuilding this exact (scene, GPU
            // config) ground truth, lease its run instead of racing
            // it — this request creates no shards for the bench and
            // loads the producer's verified cache once it lands.
            const std::uint64_t key = item.bench->data->cacheKey();
            auto inFlight = regenOwner_.find(key);
            if (inFlight != regenOwner_.end()) {
                const std::size_t frames = item.bench->scene.numFrames();
                const std::size_t shardCount =
                    (frames + config_.shard.shardFrames - 1) /
                    config_.shard.shardFrames;
                item.leased = true;
                item.leaseKey = key;
                item.leaseProducer = inFlight->second;
                ambient_.scalar("sched.shards_coalesced",
                                "regeneration shards avoided by "
                                "leasing an in-flight rebuild") +=
                    static_cast<double>(shardCount);
                Json fields = Json::object();
                fields.set("bench", item.bench->alias);
                fields.set("request", request->id);
                fields.set("producer", inFlight->second);
                fields.set("shards_avoided", shardCount);
                request->recordEvent("shard_coalesce",
                                     std::move(fields));
                continue;
            }
            regenOwner_[key] = request->id;
            addShards(*request, i);
        }
    }

    ++nextRequestId_;
    ++ambient_.scalar("sched.requests_admitted",
                      "requests accepted into the run queue");
    Json fields = Json::object();
    fields.set("request", request->id);
    fields.set("tenant", request->tenant);
    fields.set("policy", "fair");
    Json names = Json::array();
    for (const Item &item : request->items)
        names.push(item.bench->alias);
    fields.set("benches", std::move(names));
    fields.set("queue_depth", active_.size() + 1);
    request->recordEvent("request_admit", std::move(fields));

    const std::size_t id = request->id;
    active_.push_back(std::move(request));
    return id;
}

void
Scheduler::addShards(Request &request, std::size_t item)
{
    const std::size_t frames =
        request.items[item].bench->scene.numFrames();
    for (std::size_t begin = 0; begin < frames;
         begin += config_.shard.shardFrames) {
        Shard shard;
        shard.id = nextShardId_++;
        shard.item = item;
        shard.beginFrame = begin;
        shard.endFrame =
            std::min(frames, begin + config_.shard.shardFrames);
        request.shards.push_back(std::move(shard));
    }
}

void
Scheduler::dispatchEligible(double now)
{
    while (fleet_.hasIdle()) {
        std::vector<Candidate> candidates;
        candidates.reserve(active_.size());
        for (const auto &request : active_) {
            Candidate c;
            c.arrival = request->id;
            c.remaining = request->remainingShards();
            c.tenantVirtual = tenantVirtual_[request->tenant];
            for (const Shard &shard : request->shards)
                if (shard.state == Shard::State::Pending &&
                    shard.eligibleAt <= now) {
                    c.eligible = true;
                    break;
                }
            candidates.push_back(c);
        }
        const std::size_t pick = pickNext(candidates);
        if (pick == kNoPick)
            return;

        Request &request = *active_[pick];
        Shard *next = nullptr;
        std::size_t index = 0;
        for (std::size_t s = 0; s < request.shards.size(); ++s)
            if (request.shards[s].state == Shard::State::Pending &&
                request.shards[s].eligibleAt <= now) {
                next = &request.shards[s];
                index = s;
                break;
            }
        if (!next)
            return; // cannot happen: eligible implied a pending shard

        serve::ShardSpec spec;
        spec.id = next->id;
        spec.bench = request.items[next->item].bench->alias;
        spec.beginFrame = next->beginFrame;
        spec.endFrame = next->endFrame;
        spec.attempt = next->attempts;
        std::size_t slot = 0;
        if (!fleet_.dispatch(spec, shardDeadlineSeconds(*next),
                             &slot))
            return; // every idle worker died taking a request

        next->state = Shard::State::Running;
        owner_[next->id] = {&request, index};
        if (request.firstDispatchAt < 0.0) {
            request.firstDispatchAt = now;
            recordRequestSpan(request.id, "request.wait",
                              request.admitted.wallSeconds, now,
                              request.id, request.tenant);
        }
        // Weighted fair queueing: each dispatch charges the tenant
        // 1/weight of virtual time, so a weight-2 tenant accumulates
        // half as fast and is picked twice as often under contention.
        tenantVirtual_[request.tenant] +=
            1.0 / std::max(request.weight, 1e-9);
        ++ambient_.scalar("sched.shards_dispatched",
                          "shards leased to fleet workers");
        Json fields = Json::object();
        fields.set("shard", next->id);
        fields.set("request", request.id);
        fields.set("worker", slot);
        fields.set("bench", spec.bench);
        fields.set("policy", "fair");
        fields.set("remaining", request.remainingShards());
        request.recordEvent("sched_dispatch", std::move(fields));
    }
}

void
Scheduler::resolveLeases()
{
    for (auto &request : active_) {
        for (std::size_t i = 0; i < request->items.size(); ++i) {
            Item &item = request->items[i];
            if (!item.leased)
                continue;
            const bool producerActive = std::any_of(
                active_.begin(), active_.end(),
                [&](const std::unique_ptr<Request> &r) {
                    return r->id == item.leaseProducer;
                });
            if (producerActive)
                continue;

            // The producer finalized (or was never going to finish
            // this bench). Prefer its stored cache; fall back to
            // regenerating ourselves if it quarantined the bench or
            // the cache store failed.
            std::optional<obs::ProcessRegistryOverride> isolate;
            if (request->registry)
                isolate.emplace(*request->registry);
            item.leased = false;
            Json fields = Json::object();
            fields.set("bench", item.bench->alias);
            fields.set("request", request->id);
            if (item.bench->data->probeCaches() ==
                megsim::CacheProbe::Loaded) {
                item.bench->cacheStatus = "coalesced";
                item.needsRegen = false; // nothing to reassemble
                fields.set("source", "cache");
            } else {
                regenOwner_[item.leaseKey] = request->id;
                addShards(*request, i);
                fields.set("source", "rebuild");
            }
            request->recordEvent("lease_resolved", std::move(fields));
        }
    }
}

void
Scheduler::routeFleetEvents()
{
    for (auto &[type, fields] : fleet_.drainLedgerEvents()) {
        Request *owner = nullptr;
        if (auto shard = fields.countAt("shard"); shard.ok()) {
            auto it = owner_.find(*shard);
            if (it != owner_.end())
                owner = it->second.first;
        }
        if (!owner)
            // Spawns and idle exits have no shard: charge the oldest
            // in-flight request that keeps a ledger (the facade's
            // single request in the solo case).
            for (const auto &request : active_)
                if (request->ledger) {
                    owner = request.get();
                    break;
                }
        if (owner)
            owner->recordEvent(type.c_str(), std::move(fields));
    }
}

void
Scheduler::failShard(Request &request, Shard &shard,
                     const std::string &reason)
{
    shard.state = Shard::State::Pending;
    shard.lastReason = reason;
    ++shard.attempts;
    const std::string &alias = request.items[shard.item].bench->alias;
    if (shard.attempts > config_.shard.retryCap) {
        shard.state = Shard::State::Quarantined;
        request.items[shard.item].quarantined = true;
        // Abandon the bench's remaining work — without this shard it
        // can never produce a result row. Only THIS request degrades;
        // its neighbours in the run queue are untouched.
        for (Shard &other : request.shards)
            if (other.item == shard.item &&
                other.state == Shard::State::Pending)
                other.state = Shard::State::Cancelled;
        sim::warn("sched: quarantining shard %zu (%s [%zu, %zu)) "
                  "of request %zu after %zu attempts: %s",
                  shard.id, alias.c_str(), shard.beginFrame,
                  shard.endFrame, request.id, shard.attempts,
                  reason.c_str());
        ++ambient_.scalar("serve.shards_quarantined",
                          "shards abandoned after the retry cap");
        Json fields = Json::object();
        fields.set("shard", shard.id);
        fields.set("bench", alias);
        fields.set("attempts", shard.attempts);
        fields.set("reason", reason);
        request.recordEvent("shard_quarantine", std::move(fields));
        return;
    }
    // Exponential backoff with deterministic jitter: the schedule is
    // a pure function of (seed, shard, attempt), so recovery timing
    // is reproducible under MEGSIM_FAULTS.
    std::size_t backoffMs = config_.shard.backoffBaseMs
                            << std::min<std::size_t>(
                                   shard.attempts - 1, 16);
    backoffMs = std::min(backoffMs, config_.shard.backoffCapMs);
    if (config_.shard.backoffBaseMs > 0)
        backoffMs += sim::hashMix(config_.shard.seed, shard.id,
                                  shard.attempts) %
                     config_.shard.backoffBaseMs;
    shard.eligibleAt =
        obs::wallSeconds() + static_cast<double>(backoffMs) / 1000.0;
    ++ambient_.scalar("serve.shard_retries",
                      "shard attempts rescheduled");
    Json fields = Json::object();
    fields.set("shard", shard.id);
    fields.set("bench", alias);
    fields.set("attempt", shard.attempts);
    fields.set("reason", reason);
    fields.set("backoff_ms", backoffMs);
    request.recordEvent("shard_retry", std::move(fields));
}

void
Scheduler::handleEvent(const serve::Fleet::Event &event)
{
    auto it = owner_.find(event.shard);
    if (it == owner_.end())
        return; // stale lease (request already finalized)
    Request &request = *it->second.first;
    Shard &shard = request.shards[it->second.second];
    owner_.erase(it);

    if (event.kind != serve::Fleet::EventKind::Reply) {
        failShard(request, shard, event.reason);
        return;
    }

    const Json *status = event.reply.find("status");
    if (!status || status->asString() != "ok") {
        const Json *message = event.reply.find("message");
        failShard(request, shard,
                  message ? message->asString() : "worker error");
        return;
    }
    auto stats = rowsFromJson(event.reply.find("stats"), "stats");
    auto acts =
        rowsFromJson(event.reply.find("activity"), "activity");
    auto resumed = event.reply.countAt("resumed");
    if (!stats.ok() || !acts.ok() || !resumed.ok() ||
        stats->size() != shard.endFrame - shard.beginFrame ||
        acts->size() != stats->size()) {
        failShard(request, shard, "malformed shard reply");
        return;
    }
    shard.resumed = *resumed;
    shard.statsRows = std::move(*stats);
    shard.activityRows = std::move(*acts);
    shard.state = Shard::State::Done;
    ++ambient_.scalar("serve.shards_completed",
                      "shards completed and recorded");
    // The shard journal served its purpose; the rows now live with
    // the scheduler.
    serve::shardCheckpoint(*request.items[shard.item].bench->data,
                           shard.beginFrame, shard.endFrame)
        .discard();
}

RequestResult
Scheduler::finalize(std::unique_ptr<Request> request)
{
    const double analyzeStart = obs::wallSeconds();
    RequestResult result;
    result.id = request->id;
    result.tenant = request->tenant;

    // Release regeneration ownership: caches this request stored are
    // on disk now, so leasing requests resolve on their next step.
    for (auto it = regenOwner_.begin(); it != regenOwner_.end();)
        it = it->second == request->id ? regenOwner_.erase(it)
                                       : std::next(it);

    {
        std::optional<obs::ProcessRegistryOverride> isolate;
        if (request->registry)
            isolate.emplace(*request->registry);

        // Reassemble each regenerated benchmark's ground truth from
        // its shard rows (frame order = shard order within the
        // bench) and install it — the same cache files as the
        // in-process pass.
        for (std::size_t i = 0; i < request->items.size(); ++i) {
            Item &item = request->items[i];
            if (!item.needsRegen || item.quarantined)
                continue;
            batch::SuiteBench &bench = *item.bench;
            const std::size_t vs = bench.scene.numVertexShaders();
            const std::size_t fs = bench.scene.numFragmentShaders();
            std::vector<gpusim::FrameStats> stats;
            std::vector<gpusim::FrameActivity> acts;
            stats.reserve(bench.scene.numFrames());
            acts.reserve(bench.scene.numFrames());
            for (const Shard &shard : request->shards) {
                if (shard.item != i)
                    continue;
                bench.resumedFrames += shard.resumed;
                for (const std::vector<double> &row :
                     shard.statsRows)
                    stats.push_back(
                        gpusim::FrameStats::fromCsvRow(row));
                for (const std::vector<double> &row :
                     shard.activityRows)
                    acts.push_back(
                        megsim::activityFromRow(row, vs, fs));
            }
            auto installed = bench.data->installGroundTruth(
                std::move(stats), std::move(acts));
            if (!installed.ok())
                sim::warn("sched: cache store of '%s' failed: %s",
                          bench.alias.c_str(),
                          installed.error().message.c_str());
        }

        // Analyze in suite order through the shared pipeline —
        // identical inputs, identical rows to the in-process
        // campaign.
        batch::CampaignReport &report = result.report;
        for (Item &item : request->items)
            if (!item.quarantined)
                report.benchmarks.push_back(
                    item.bench->analyze(base_.megsim));
        for (const Shard &shard : request->shards) {
            if (shard.state != Shard::State::Quarantined)
                continue;
            batch::QuarantinedShard q;
            q.shard = shard.id;
            q.bench = request->items[shard.item].bench->alias;
            q.beginFrame = shard.beginFrame;
            q.endFrame = shard.endFrame;
            q.attempts = shard.attempts;
            q.reason = shard.lastReason;
            report.quarantined.push_back(std::move(q));
        }
        report.degraded = !report.quarantined.empty();
        batch::finishReport(report, request->admitted);
    }

    const double now = obs::wallSeconds();
    const double serviceStart = request->firstDispatchAt >= 0.0
                                    ? request->firstDispatchAt
                                    : analyzeStart;
    result.status = result.report.degraded ? "degraded" : "ok";
    result.queueWaitSeconds =
        serviceStart - request->admitted.wallSeconds;
    result.serviceSeconds = now - serviceStart;
    recordRequestSpan(request->id, "request.service", serviceStart,
                      now, request->id, request->tenant);
    ++ambient_.scalar("sched.requests_completed",
                      "requests finalized and replied");

    std::size_t quarantined = 0;
    for (const Shard &shard : request->shards)
        if (shard.state == Shard::State::Quarantined)
            ++quarantined;
    Json fields = Json::object();
    fields.set("request", request->id);
    fields.set("status", result.status);
    fields.set("queue_wait_seconds", result.queueWaitSeconds);
    fields.set("service_seconds", result.serviceSeconds);
    fields.set("shards", request->shards.size());
    fields.set("quarantined", quarantined);
    request->recordEvent("request_done", std::move(fields));
    return result;
}

std::vector<RequestResult>
Scheduler::step(int timeoutMs)
{
    std::vector<RequestResult> finished;
    if (active_.empty())
        return finished;
    const double now = obs::wallSeconds();

    // Leased items whose producer finalized last round resolve first,
    // so any fallback shards they create dispatch this round.
    resolveLeases();

    std::size_t outstanding = 0;
    bool backingOff = false;
    for (const auto &request : active_)
        for (const Shard &shard : request->shards) {
            if (shard.state == Shard::State::Pending ||
                shard.state == Shard::State::Running)
                ++outstanding;
            if (shard.state == Shard::State::Pending &&
                shard.eligibleAt > now)
                backingOff = true;
        }

    fleet_.ensureWorkers(outstanding);
    dispatchEligible(now);
    routeFleetEvents();

    if (fleet_.busyCount() > 0) {
        const std::vector<serve::Fleet::Event> events =
            fleet_.poll(timeoutMs);
        routeFleetEvents();
        for (const serve::Fleet::Event &event : events)
            handleEvent(event);
    } else if (backingOff) {
        // Everything pending is waiting out its backoff; sleep
        // briefly so the loop doesn't spin.
        ::usleep(2000);
    }

    // Finalize every request whose shards are all terminal and whose
    // leases (if any) have resolved.
    for (std::size_t i = 0; i < active_.size();) {
        const bool done =
            std::none_of(
                active_[i]->shards.begin(), active_[i]->shards.end(),
                [](const Shard &shard) {
                    return shard.state == Shard::State::Pending ||
                           shard.state == Shard::State::Running;
                }) &&
            std::none_of(active_[i]->items.begin(),
                         active_[i]->items.end(),
                         [](const Item &item) {
                             return item.leased;
                         });
        if (!done) {
            ++i;
            continue;
        }
        std::unique_ptr<Request> request = std::move(active_[i]);
        active_.erase(active_.begin() + i);
        finished.push_back(finalize(std::move(request)));
    }
    return finished;
}

std::vector<RequestResult>
Scheduler::runToCompletion()
{
    std::vector<RequestResult> results;
    while (busy()) {
        std::vector<RequestResult> finished = step(50);
        for (RequestResult &result : finished)
            results.push_back(std::move(result));
    }
    return results;
}

} // namespace msim::sched
