#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "batch/campaign.hh"
#include "obs/ledger.hh"
#include "resilience/fault.hh"
#include "scratch_dir.hh"
#include "sched/scheduler.hh"
#include "serve/fleet.hh"
#include "serve/protocol.hh"

using namespace msim;
using resilience::Errc;
using resilience::FaultInjector;

namespace
{

/** Fresh scratch dir per test; worker faults disarmed on both ends. */
class ServeTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FaultInjector::setGlobalSpec("");
        dir_ = msim::test::scratchDir() /
               ("megsim_serve_" +
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

/** RAII pipe pair for the protocol tests. */
struct Pipe
{
    int fds[2] = {-1, -1};
    Pipe() { EXPECT_EQ(::pipe(fds), 0); }
    ~Pipe()
    {
        closeRead();
        closeWrite();
    }
    void closeRead()
    {
        if (fds[0] >= 0)
            ::close(fds[0]);
        fds[0] = -1;
    }
    void closeWrite()
    {
        if (fds[1] >= 0)
            ::close(fds[1]);
        fds[1] = -1;
    }
};

batch::CampaignConfig
campaignConfig(const std::string &cacheDir,
               const std::vector<std::string> &benches,
               std::size_t frames)
{
    batch::CampaignConfig config;
    config.benches = benches;
    config.cacheDir = cacheDir;
    config.frameLimit = frames;
    config.megsim.selector.kmeans.seed = 0x4d4547;
    return config;
}

/** Fast supervision settings: near-zero backoff, fine shards. */
sched::ShardConfig
shardConfig()
{
    sched::ShardConfig shard;
    shard.shardFrames = 4;
    shard.retryCap = 3;
    shard.backoffBaseMs = 1;
    shard.backoffCapMs = 4;
    return shard;
}

/**
 * A supervised campaign as `campaign --workers N` runs it: the suite
 * as one request to a Scheduler over a fleet of @p workers.
 */
resilience::Expected<batch::CampaignReport>
runSupervised(const batch::CampaignConfig &config,
              const sched::ShardConfig &shard, std::size_t workers,
              obs::RunLedger *ledger = nullptr)
{
    serve::Fleet fleet(config, workers);
    sched::SchedulerConfig schedConfig;
    schedConfig.shard = shard;
    sched::Scheduler scheduler(config, schedConfig, fleet);
    sched::RequestSpec spec;
    spec.benches = config.benches;
    spec.ledger = ledger;
    if (auto admitted = scheduler.admit(spec); !admitted.ok())
        return admitted.error();
    std::vector<sched::RequestResult> results =
        scheduler.runToCompletion();
    fleet.shutdown();
    for (auto &[type, fields] : fleet.drainLedgerEvents())
        if (ledger)
            ledger->event(type, std::move(fields));
    if (results.size() != 1)
        return resilience::errorf(Errc::Exhausted,
                                  "%zu results for one request",
                                  results.size());
    return std::move(results.front().report);
}

} // namespace

TEST_F(ServeTest, FramesRoundTripThroughAPipe)
{
    Pipe pipe;
    util::Json msg = util::Json::object();
    msg.set("type", "shard");
    msg.set("shard", static_cast<std::size_t>(7));
    msg.set("bench", "hcr");
    ASSERT_TRUE(serve::writeMessage(pipe.fds[1], msg).ok());

    auto read = serve::readMessage(pipe.fds[0], 1000.0);
    ASSERT_TRUE(read.ok()) << read.error().message;
    EXPECT_EQ(read->dump(), msg.dump());

    // Two frames queue back to back without bleeding into each other.
    // Timeouts beyond int's range of milliseconds (an infinite frame
    // budget, a ~95-year shard deadline) mean no limit.
    ASSERT_TRUE(serve::writeMessage(pipe.fds[1], msg).ok());
    ASSERT_TRUE(serve::writeMessage(pipe.fds[1], msg).ok());
    EXPECT_TRUE(serve::readMessage(pipe.fds[0],
                                   std::numeric_limits<double>::infinity())
                    .ok());
    EXPECT_TRUE(serve::readMessage(pipe.fds[0], 3e12).ok());
}

TEST_F(ServeTest, CorruptPayloadIsBadChecksumNotGarbage)
{
    Pipe pipe;
    util::Json msg = util::Json::object();
    msg.set("type", "shard");
    ASSERT_TRUE(serve::writeMessage(pipe.fds[1], msg).ok());

    // Flip one payload byte on the wire: header (24 bytes) intact,
    // checksum now wrong.
    std::string raw(64, '\0');
    const ssize_t got = ::read(pipe.fds[0], raw.data(), raw.size());
    ASSERT_GT(got, 24);
    raw.resize(static_cast<std::size_t>(got));
    raw[30] ^= 0x20;
    Pipe corrupted;
    ASSERT_EQ(::write(corrupted.fds[1], raw.data(), raw.size()),
              static_cast<ssize_t>(raw.size()));

    auto read = serve::readMessage(corrupted.fds[0], 1000.0);
    ASSERT_FALSE(read.ok());
    EXPECT_EQ(read.error().code, Errc::BadChecksum);
}

TEST_F(ServeTest, PeerDeathAndSilenceAreDistinctErrors)
{
    // EOF (peer closed) → Truncated: the supervisor's "crash" path.
    {
        Pipe pipe;
        pipe.closeWrite();
        auto read = serve::readFrame(pipe.fds[0], 1000.0);
        ASSERT_FALSE(read.ok());
        EXPECT_EQ(read.error().code, Errc::Truncated);
    }
    // Open but silent → FrameTimeout: the supervisor's "hang" path.
    {
        Pipe pipe;
        auto read = serve::readFrame(pipe.fds[0], 50.0);
        ASSERT_FALSE(read.ok());
        EXPECT_EQ(read.error().code, Errc::FrameTimeout);
    }
}

TEST_F(ServeTest, ShardRequestsRoundTripAndValidate)
{
    serve::ShardSpec spec;
    spec.id = 3;
    spec.bench = "jjo";
    spec.beginFrame = 8;
    spec.endFrame = 12;
    spec.attempt = 2;
    auto parsed = serve::parseShardRequest(serve::shardRequest(spec));
    ASSERT_TRUE(parsed.ok()) << parsed.error().message;
    EXPECT_EQ(parsed->id, 3u);
    EXPECT_EQ(parsed->bench, "jjo");
    EXPECT_EQ(parsed->beginFrame, 8u);
    EXPECT_EQ(parsed->endFrame, 12u);
    EXPECT_EQ(parsed->attempt, 2u);

    // A count off the pipe that is negative, fractional or overflows
    // to infinity is malformed, and the error names the key.
    for (const char *bad : {"-1", "2.5", "1e400"}) {
        util::Json request = serve::shardRequest(spec);
        request.set("begin_frame", *util::Json::parse(bad));
        auto refused = serve::parseShardRequest(request);
        ASSERT_FALSE(refused.ok()) << bad;
        EXPECT_EQ(refused.error().code, Errc::BadFormat) << bad;
        EXPECT_NE(refused.error().message.find("'begin_frame'"),
                  std::string::npos)
            << refused.error().message;
    }

    // An empty range is malformed, not a zero-work success.
    spec.endFrame = spec.beginFrame;
    EXPECT_FALSE(
        serve::parseShardRequest(serve::shardRequest(spec)).ok());
}

TEST_F(ServeTest, WorkerFaultDiceAreDeterministicPerShardAttempt)
{
    FaultInjector::setGlobalSpec("worker.kill:shard=2,times=1");
    FaultInjector &faults = FaultInjector::global();
    // Fires on shard 2's first attempt only — and re-rolls the SAME
    // outcome on every query, as a respawned worker would.
    EXPECT_TRUE(faults.killWorker(2, 0));
    EXPECT_TRUE(faults.killWorker(2, 0));
    EXPECT_FALSE(faults.killWorker(2, 1));
    EXPECT_FALSE(faults.killWorker(1, 0));
    EXPECT_FALSE(faults.hangWorker(2, 0)); // different class, no clause

    FaultInjector::setGlobalSpec("worker.hang:shard=1");
    EXPECT_TRUE(FaultInjector::global().hangWorker(1, 0));
    EXPECT_TRUE(FaultInjector::global().hangWorker(1, 5));
    EXPECT_FALSE(FaultInjector::global().hangWorker(0, 0));
}

TEST_F(ServeTest, ReadMessageNeverActsOnAFileNamedInAFrame)
{
    // A frame is data: one that names a file (the shape of the retired
    // reply-spill reference) reads back unchanged and leaves the file
    // alone, whoever sent it.
    const std::string victim = path("victim.txt");
    {
        std::ofstream out(victim);
        out << "keep me\n";
    }
    util::Json msg = util::Json::object();
    msg.set("type", "spill_ref");
    msg.set("path", victim);
    msg.set("bytes", static_cast<std::size_t>(8));
    msg.set("checksum", "0");
    Pipe pipe;
    ASSERT_TRUE(serve::writeMessage(pipe.fds[1], msg).ok());

    auto read = serve::readMessage(pipe.fds[0], 1000.0);
    ASSERT_TRUE(read.ok()) << read.error().message;
    EXPECT_EQ(read->dump(), msg.dump());
    ASSERT_TRUE(std::filesystem::exists(victim));
    std::ifstream in(victim);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "keep me");
}

TEST_F(ServeTest, SupervisedRunsMatchInProcessAtEveryWorkerCount)
{
    const std::vector<std::string> benches = {"hcr", "jjo"};
    constexpr std::size_t kFrames = 12;

    // In-process reference, no faults.
    std::filesystem::create_directories(path("ref"));
    batch::Campaign ref(
        campaignConfig(path("ref"), benches, kFrames));
    auto expected = ref.run();
    ASSERT_TRUE(expected.ok()) << expected.error().message;

    for (std::size_t workers : {1u, 2u, 4u}) {
        // Kill the first attempt of two different shards: every run
        // exercises crash detection, journal resume and re-dispatch.
        FaultInjector::setGlobalSpec(
            "worker.kill:shard=1,times=1;worker.kill:shard=2,times=1");
        const std::string cache =
            path("w" + std::to_string(workers));
        std::filesystem::create_directories(cache);
        auto report = runSupervised(
            campaignConfig(cache, benches, kFrames), shardConfig(),
            workers);
        FaultInjector::setGlobalSpec("");
        ASSERT_TRUE(report.ok()) << report.error().message;
        EXPECT_FALSE(report->degraded);

        const std::vector<std::string> diffs =
            batch::diffReports(*expected, *report);
        EXPECT_TRUE(diffs.empty())
            << workers << " workers: " << diffs.front();
    }
}

TEST_F(ServeTest, PoisonShardIsQuarantinedAndTheRestCompletes)
{
    const std::vector<std::string> benches = {"hcr", "jjo"};
    constexpr std::size_t kFrames = 6;

    // Each poison fails its shards on EVERY attempt: the retry cap
    // must trip, not spin forever. Shard 0 is hcr's only shard at
    // shardFrames=6, and frame 4 lies in every bench's one shard, so
    // the in-worker frame watchdog quarantines them all.
    const struct
    {
        std::string spec;
        std::vector<std::string> quarantined;
        std::vector<std::string> rows; // the benches that still report
        std::string reason;            // "" = any non-empty reason
    } poisons[] = {
        {"worker.kill:shard=0", {"hcr"}, {"jjo"}, ""},
        {"frame.hang:frame=4", {"hcr", "jjo"}, {}, "frame 4 hung (injected)"},
    };
    for (std::size_t p = 0; p < std::size(poisons); ++p) {
        const auto &poison = poisons[p];
        SCOPED_TRACE(poison.spec);
        const std::string cache = path("cache" + std::to_string(p));
        FaultInjector::setGlobalSpec(poison.spec);
        sched::ShardConfig settings = shardConfig();
        settings.shardFrames = kFrames;
        settings.retryCap = 1;
        obs::RunLedger ledger;
        auto report = runSupervised(
            campaignConfig(cache, benches, kFrames), settings, 2,
            &ledger);
        FaultInjector::setGlobalSpec("");
        ASSERT_TRUE(report.ok()) << report.error().message;

        EXPECT_TRUE(report->degraded);
        ASSERT_EQ(report->quarantined.size(), poison.quarantined.size());
        for (std::size_t q = 0; q < poison.quarantined.size(); ++q) {
            const batch::QuarantinedShard &shard = report->quarantined[q];
            EXPECT_EQ(shard.bench, poison.quarantined[q]);
            EXPECT_EQ(shard.beginFrame, 0u);
            EXPECT_EQ(shard.endFrame, kFrames);
            EXPECT_EQ(shard.attempts, settings.retryCap + 1);
            EXPECT_FALSE(shard.reason.empty());
            EXPECT_NE(shard.reason.find(poison.reason), std::string::npos)
                << shard.reason;
        }

        // A poisoned benchmark has no result row; a healthy one does.
        std::vector<std::string> rows;
        for (const batch::BenchmarkReport &row : report->benchmarks)
            rows.push_back(row.alias);
        EXPECT_EQ(rows, poison.rows);

        // The ledger carries the full supervision story.
        std::size_t retries = 0, quarantines = 0, spawns = 0;
        for (const util::Json &ev : ledger.events()) {
            const std::string type = ev.find("event")->asString();
            retries += type == "shard_retry";
            quarantines += type == "shard_quarantine";
            spawns += type == "worker_spawn";
            ASSERT_TRUE(obs::RunLedger::validateEvent(ev).ok());
        }
        EXPECT_EQ(retries, settings.retryCap * poison.quarantined.size());
        EXPECT_EQ(quarantines, poison.quarantined.size());
        EXPECT_GE(spawns, 2u);

        // The degraded report round-trips bit-for-bit.
        auto back = batch::CampaignReport::fromJson(report->toJson());
        ASSERT_TRUE(back.ok()) << back.error().message;
        EXPECT_EQ(back->toJson().dump(), report->toJson().dump());
        EXPECT_TRUE(batch::diffReports(*report, *back).empty());
    }
}
