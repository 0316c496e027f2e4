/**
 * @file
 * Scheduler subsystem tests: fair-share dispatch (backfill past a
 * backing-off request, no starvation), strict served settings,
 * per-request bit-identity under interleaved multi-request dispatch
 * with injected worker kills, admission-control backpressure, and
 * per-request quarantine isolation.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "batch/campaign.hh"
#include "obs/ledger.hh"
#include "obs/stats.hh"
#include "resilience/fault.hh"
#include "sched/policy.hh"
#include "sched/scheduler.hh"
#include "scratch_dir.hh"
#include "serve/fleet.hh"

using namespace msim;
using resilience::Errc;
using resilience::FaultInjector;

namespace
{

class SchedTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FaultInjector::setGlobalSpec("");
        dir_ = msim::test::scratchDir() /
               ("megsim_sched_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        FaultInjector::setGlobalSpec("");
        std::filesystem::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

batch::CampaignConfig
campaignConfig(const std::string &cacheDir, std::size_t frames)
{
    batch::CampaignConfig config;
    config.cacheDir = cacheDir;
    config.frameLimit = frames;
    config.megsim.selector.kmeans.seed = 0x4d4547;
    return config;
}

/** Fast supervision settings: near-zero backoff, fine shards. */
sched::SchedulerConfig
schedConfig(std::size_t maxInflight)
{
    sched::SchedulerConfig config;
    config.maxInflight = maxInflight;
    config.shard.shardFrames = 4;
    config.shard.retryCap = 3;
    config.shard.backoffBaseMs = 1;
    config.shard.backoffCapMs = 4;
    return config;
}

/** In-process reference report for one bench list. */
batch::CampaignReport
soloReference(const std::string &cacheDir,
              const std::vector<std::string> &benches,
              std::size_t frames)
{
    batch::CampaignConfig config = campaignConfig(cacheDir, frames);
    config.benches = benches;
    batch::Campaign campaign(config);
    auto report = campaign.run();
    EXPECT_TRUE(report.ok()) << report.error().message;
    return *report;
}

} // namespace

TEST_F(SchedTest, FairSharePicksLeastVirtualTimeAndNeverStarves)
{
    using sched::Candidate;
    // Two tenants, weight 2 vs 1 (virtual time charged 1/weight per
    // dispatch). Simulate a saturated fleet handing out one lease at
    // a time: every tenant keeps progressing, and the heavy tenant
    // gets about twice the leases.
    double virtualA = 0.0, virtualB = 0.0;
    std::size_t leasesA = 0, leasesB = 0;
    for (int i = 0; i < 300; ++i) {
        std::vector<Candidate> candidates = {
            {0, 1, true, virtualA},
            {1, 1, true, virtualB},
        };
        const std::size_t pick = sched::pickNext(candidates);
        ASSERT_NE(pick, sched::kNoPick);
        if (pick == 0) {
            virtualA += 1.0 / 2.0; // weight 2
            ++leasesA;
        } else {
            virtualB += 1.0; // weight 1
            ++leasesB;
        }
        // No starvation: the virtual-time gap stays bounded, so
        // neither tenant can be locked out.
        ASSERT_LT(virtualA, virtualB + 1.5);
        ASSERT_LT(virtualB, virtualA + 1.5);
    }
    EXPECT_GT(leasesA, 0u);
    EXPECT_GT(leasesB, 0u);
    EXPECT_NEAR(static_cast<double>(leasesA) /
                    static_cast<double>(leasesB),
                2.0, 0.1);

    // Arrival order breaks exact ties.
    std::vector<Candidate> tie = {{3, 1, true, 1.0},
                                  {1, 1, true, 1.0},
                                  {2, 1, true, 4.0}};
    EXPECT_EQ(sched::pickNext(tie), 1u);

    // An older request whose shards are all backing off does not hold
    // the fleet: a younger eligible one backfills.
    std::vector<Candidate> backoff = {{0, 2, false, 0.0},
                                      {1, 2, true, 0.0}};
    EXPECT_EQ(sched::pickNext(backoff), 1u);
    backoff[1].eligible = false;
    EXPECT_EQ(sched::pickNext(backoff), sched::kNoPick);
}

TEST_F(SchedTest, MalformedServedSettingsWarnAndKeepTheirDefaults)
{
    const sched::SchedulerConfig defaults;
    struct Setting
    {
        const char *name;
        std::size_t (*read)();
        std::size_t fallback;
        const char *good;
        std::size_t parsed;
    };
    const Setting settings[] = {
        {"MEGSIM_SHARD_FRAMES",
         [] { return sched::ShardConfig::fromEnv().shardFrames; },
         defaults.shard.shardFrames, "8", 8},
        {"MEGSIM_SHARD_RETRIES",
         [] { return sched::ShardConfig::fromEnv().retryCap; },
         defaults.shard.retryCap, "0", 0},
        {"MEGSIM_SHARD_DEADLINE_MS",
         [] { return sched::ShardConfig::fromEnv().shardDeadlineMs; },
         defaults.shard.shardDeadlineMs, "1500", 1500},
    };
    for (const Setting &setting : settings) {
        for (const char *bad : {"abc", "3x", "-1", "2.5", "inf"}) {
            ::setenv(setting.name, bad, 1);
            ::testing::internal::CaptureStderr();
            const std::size_t value = setting.read();
            const std::string warned =
                ::testing::internal::GetCapturedStderr();
            ::unsetenv(setting.name);
            EXPECT_EQ(value, setting.fallback) << setting.name << bad;
            EXPECT_NE(warned.find(std::string(setting.name) + "='" +
                                  bad + "'"),
                      std::string::npos)
                << setting.name << ": " << warned;
        }
        ::setenv(setting.name, setting.good, 1);
        EXPECT_EQ(setting.read(), setting.parsed) << setting.name;
        ::unsetenv(setting.name);
    }
    // A frame count of 0 is malformed too.
    ::setenv("MEGSIM_SHARD_FRAMES", "0", 1);
    EXPECT_EQ(sched::ShardConfig::fromEnv().shardFrames,
              defaults.shard.shardFrames);
    ::unsetenv("MEGSIM_SHARD_FRAMES");
}

TEST_F(SchedTest, ConcurrentRequestsStayBitIdenticalToSoloRuns)
{
    constexpr std::size_t kFrames = 12;
    const std::vector<std::vector<std::string>> requestBenches = {
        {"hcr"}, {"jjo"}, {"spd"}};

    // Solo in-process references, one cold cache each.
    std::vector<batch::CampaignReport> solo;
    for (std::size_t i = 0; i < requestBenches.size(); ++i)
        solo.push_back(soloReference(
            path("solo" + std::to_string(i)), requestBenches[i],
            kFrames));

    for (std::size_t workers : {1u, 2u, 4u}) {
        // Kill the first attempt of one shard of request 0 and one
        // of request 1 (ids are global and bench-major: request 0
        // owns shards 0..2, request 1 owns 3..5 at 12 frames / 4 per
        // shard), so recovery interleaves with healthy dispatch.
        FaultInjector::setGlobalSpec(
            "worker.kill:shard=1,times=1;"
            "worker.kill:shard=4,times=1");

        const std::string cache =
            path("sched_w" + std::to_string(workers));
        const batch::CampaignConfig base =
            campaignConfig(cache, kFrames);
        serve::Fleet fleet(base, workers);
        sched::Scheduler scheduler(
            base, schedConfig(8), fleet);

        std::vector<obs::RunLedger> ledgers(requestBenches.size());
        std::map<std::size_t, std::size_t> requestOf;
        for (std::size_t i = 0; i < requestBenches.size(); ++i) {
            sched::RequestSpec spec;
            spec.benches = requestBenches[i];
            spec.tenant = "tenant-" + std::to_string(i);
            spec.ledger = &ledgers[i];
            auto id = scheduler.admit(spec);
            ASSERT_TRUE(id.ok()) << id.error().message;
            requestOf[*id] = i;
        }
        std::vector<sched::RequestResult> results =
            scheduler.runToCompletion();
        fleet.shutdown();
        FaultInjector::setGlobalSpec("");
        ASSERT_EQ(results.size(), requestBenches.size());

        for (const sched::RequestResult &result : results) {
            ASSERT_TRUE(requestOf.count(result.id));
            const std::size_t i = requestOf[result.id];
            EXPECT_EQ(result.status, "ok");
            const std::vector<std::string> diffs =
                batch::diffReports(solo[i], result.report);
            EXPECT_TRUE(diffs.empty())
                << workers << " workers, request " << i << ": "
                << diffs.front();
        }
        // Every per-request ledger validates strictly and carries
        // the scheduler story for exactly its own request.
        for (const obs::RunLedger &ledger : ledgers) {
            std::size_t admits = 0, dones = 0, dispatches = 0;
            for (const util::Json &ev : ledger.events()) {
                ASSERT_TRUE(
                    obs::RunLedger::validateEvent(ev).ok());
                const std::string type =
                    ev.find("event")->asString();
                admits += type == "request_admit";
                dones += type == "request_done";
                dispatches += type == "sched_dispatch";
            }
            EXPECT_EQ(admits, 1u);
            EXPECT_EQ(dones, 1u);
            // 12 frames / 4 per shard, each dispatched at least
            // once (kills re-dispatch their shard).
            EXPECT_GE(dispatches, 3u);
        }
    }
}

TEST_F(SchedTest, AdmissionPastMaxInflightIsBusyNotQueued)
{
    const batch::CampaignConfig base =
        campaignConfig(path("cache"), 8);
    serve::Fleet fleet(base, 1);
    sched::Scheduler scheduler(
        base, schedConfig(1), fleet);

    sched::RequestSpec spec;
    spec.benches = {"hcr"};
    ASSERT_TRUE(scheduler.admit(spec).ok());

    sched::RequestSpec second;
    second.benches = {"jjo"};
    auto rejected = scheduler.admit(second);
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.error().code, Errc::Busy);
    EXPECT_NE(rejected.error().message.find("queue full"),
              std::string::npos);

    // Once the queue drains, admission reopens.
    EXPECT_EQ(scheduler.runToCompletion().size(), 1u);
    EXPECT_TRUE(scheduler.admit(second).ok());
    EXPECT_EQ(scheduler.runToCompletion().size(), 1u);
    fleet.shutdown();
}

TEST_F(SchedTest, PoisonShardDegradesOnlyItsOwnRequest)
{
    constexpr std::size_t kFrames = 6;
    const batch::CampaignReport healthySolo =
        soloReference(path("solo"), {"jjo"}, kFrames);

    // Request 0's only shard (global shard 0: hcr at 6 frames, 6 per
    // shard) dies on every attempt; request 1 shares the fleet.
    FaultInjector::setGlobalSpec("worker.kill:shard=0");
    const batch::CampaignConfig base =
        campaignConfig(path("cache"), kFrames);
    sched::SchedulerConfig config =
        schedConfig(8);
    config.shard.shardFrames = kFrames;
    config.shard.retryCap = 1;
    serve::Fleet fleet(base, 2);
    sched::Scheduler scheduler(base, config, fleet);

    std::vector<obs::RunLedger> ledgers(2);
    sched::RequestSpec poison;
    poison.benches = {"hcr"};
    poison.tenant = "poison";
    poison.ledger = &ledgers[0];
    auto poisonId = scheduler.admit(poison);
    ASSERT_TRUE(poisonId.ok());

    sched::RequestSpec healthy;
    healthy.benches = {"jjo"};
    healthy.tenant = "healthy";
    healthy.ledger = &ledgers[1];
    auto healthyId = scheduler.admit(healthy);
    ASSERT_TRUE(healthyId.ok());

    std::vector<sched::RequestResult> results =
        scheduler.runToCompletion();
    fleet.shutdown();
    FaultInjector::setGlobalSpec("");
    ASSERT_EQ(results.size(), 2u);

    for (const sched::RequestResult &result : results) {
        if (result.id == *poisonId) {
            EXPECT_EQ(result.status, "degraded");
            ASSERT_EQ(result.report.quarantined.size(), 1u);
            EXPECT_EQ(result.report.quarantined[0].bench, "hcr");
            EXPECT_TRUE(result.report.benchmarks.empty());
        } else {
            EXPECT_EQ(result.id, *healthyId);
            EXPECT_EQ(result.status, "ok");
            EXPECT_TRUE(
                batch::diffReports(healthySolo, result.report)
                    .empty());
        }
    }
    // The quarantine story lands only in the poisoned request's
    // ledger; both ledgers stay schema-valid.
    std::size_t quarantines[2] = {0, 0};
    for (std::size_t i = 0; i < 2; ++i)
        for (const util::Json &ev : ledgers[i].events()) {
            ASSERT_TRUE(obs::RunLedger::validateEvent(ev).ok());
            quarantines[i] +=
                ev.find("event")->asString() == "shard_quarantine";
        }
    EXPECT_EQ(quarantines[0], 1u);
    EXPECT_EQ(quarantines[1], 0u);
}

TEST_F(SchedTest, DuplicateRegenerationCoalescesAcrossRequests)
{
    // Two concurrent requests for the same benchmark over the same
    // cache dir: the second must LEASE the first's in-flight
    // regeneration instead of racing it shard for shard (DESIGN.md
    // §6j), then load the producer's verified cache and report the
    // same numbers.
    constexpr std::size_t kFrames = 12;
    const batch::CampaignReport solo =
        soloReference(path("solo"), {"hcr"}, kFrames);

    const batch::CampaignConfig base =
        campaignConfig(path("cache"), kFrames);
    serve::Fleet fleet(base, 2);
    sched::Scheduler scheduler(
        base, schedConfig(8), fleet);

    const double coalescedBefore =
        obs::processRegistry()
            .scalar("sched.shards_coalesced")
            .value();

    std::vector<obs::RunLedger> ledgers(2);
    sched::RequestSpec producer;
    producer.benches = {"hcr"};
    producer.tenant = "producer";
    producer.ledger = &ledgers[0];
    auto producerId = scheduler.admit(producer);
    ASSERT_TRUE(producerId.ok()) << producerId.error().message;

    sched::RequestSpec follower;
    follower.benches = {"hcr"};
    follower.tenant = "follower";
    follower.ledger = &ledgers[1];
    auto followerId = scheduler.admit(follower);
    ASSERT_TRUE(followerId.ok()) << followerId.error().message;

    // All 3 of the follower's would-be shards (12 frames / 4 per
    // shard) were avoided at admission, before any dispatch.
    EXPECT_EQ(obs::processRegistry()
                      .scalar("sched.shards_coalesced")
                      .value() -
                  coalescedBefore,
              3.0);

    std::vector<sched::RequestResult> results =
        scheduler.runToCompletion();
    fleet.shutdown();
    ASSERT_EQ(results.size(), 2u);
    for (const sched::RequestResult &result : results) {
        EXPECT_EQ(result.status, "ok");
        const std::vector<std::string> diffs =
            batch::diffReports(solo, result.report);
        EXPECT_TRUE(diffs.empty())
            << result.tenant << ": " << diffs.front();
        ASSERT_EQ(result.report.benchmarks.size(), 1u);
        if (result.id == *followerId)
            EXPECT_EQ(result.report.benchmarks[0].cacheStatus,
                      "coalesced");
        else
            EXPECT_EQ(result.report.benchmarks[0].cacheStatus,
                      "built");
    }

    // The follower's ledger tells the coalescing story — and never
    // dispatched a shard of its own.
    std::size_t coalesces = 0, resolved = 0, dispatches = 0;
    for (const util::Json &ev : ledgers[1].events()) {
        ASSERT_TRUE(obs::RunLedger::validateEvent(ev).ok());
        const std::string type = ev.find("event")->asString();
        if (type == "shard_coalesce") {
            ++coalesces;
            EXPECT_EQ(ev.find("producer")->asNumber(),
                      static_cast<double>(*producerId));
            EXPECT_EQ(ev.find("shards_avoided")->asNumber(), 3.0);
        }
        if (type == "lease_resolved") {
            ++resolved;
            EXPECT_EQ(ev.find("source")->asString(), "cache");
        }
        dispatches += type == "sched_dispatch";
    }
    EXPECT_EQ(coalesces, 1u);
    EXPECT_EQ(resolved, 1u);
    EXPECT_EQ(dispatches, 0u);
}

TEST_F(SchedTest, LeaseFallsBackToRebuildWhenProducerQuarantines)
{
    // The producer's regeneration dies (poisoned shard, quarantined
    // bench, no cache stored): the leasing request must claim
    // ownership and rebuild on its own shards instead of waiting for
    // a cache that will never appear.
    constexpr std::size_t kFrames = 8;
    const batch::CampaignReport solo =
        soloReference(path("solo"), {"hcr"}, kFrames);

    // Producer owns global shards 0..1 (8 frames / 4 per shard);
    // shard 0 dies on every attempt with a retry cap of 1.
    FaultInjector::setGlobalSpec("worker.kill:shard=0");
    const batch::CampaignConfig base =
        campaignConfig(path("cache"), kFrames);
    sched::SchedulerConfig config =
        schedConfig(8);
    config.shard.retryCap = 1;
    serve::Fleet fleet(base, 2);
    sched::Scheduler scheduler(base, config, fleet);

    std::vector<obs::RunLedger> ledgers(2);
    sched::RequestSpec producer;
    producer.benches = {"hcr"};
    producer.tenant = "producer";
    producer.ledger = &ledgers[0];
    auto producerId = scheduler.admit(producer);
    ASSERT_TRUE(producerId.ok());

    sched::RequestSpec follower;
    follower.benches = {"hcr"};
    follower.tenant = "follower";
    follower.ledger = &ledgers[1];
    auto followerId = scheduler.admit(follower);
    ASSERT_TRUE(followerId.ok());

    std::vector<sched::RequestResult> results =
        scheduler.runToCompletion();
    fleet.shutdown();
    FaultInjector::setGlobalSpec("");
    ASSERT_EQ(results.size(), 2u);

    for (const sched::RequestResult &result : results) {
        if (result.id == *producerId) {
            EXPECT_EQ(result.status, "degraded");
            ASSERT_EQ(result.report.quarantined.size(), 1u);
            EXPECT_EQ(result.report.quarantined[0].bench, "hcr");
        } else {
            EXPECT_EQ(result.id, *followerId);
            EXPECT_EQ(result.status, "ok");
            const std::vector<std::string> diffs =
                batch::diffReports(solo, result.report);
            EXPECT_TRUE(diffs.empty()) << diffs.front();
        }
    }
    // The lease resolved to a rebuild, dispatched on fresh shard ids.
    std::size_t rebuilds = 0, dispatches = 0;
    for (const util::Json &ev : ledgers[1].events()) {
        ASSERT_TRUE(obs::RunLedger::validateEvent(ev).ok());
        const std::string type = ev.find("event")->asString();
        if (type == "lease_resolved") {
            ++rebuilds;
            EXPECT_EQ(ev.find("source")->asString(), "rebuild");
        }
        dispatches += type == "sched_dispatch";
    }
    EXPECT_EQ(rebuilds, 1u);
    EXPECT_GE(dispatches, 2u);
}
