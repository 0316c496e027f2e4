/**
 * @file
 * Tests for the batch campaign runner: report schema round-trips,
 * threshold gating, bit-identical equivalence with sequential
 * single-benchmark runs at several thread counts, async regeneration
 * of corrupted caches, and SIGKILL-resume of a mid-flight campaign.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "batch/campaign.hh"
#include "batch/report.hh"
#include "core/megsim.hh"
#include "exec/pool.hh"
#include "resilience/fault.hh"
#include "scratch_dir.hh"
#include "util/json.hh"
#include "workloads/workloads.hh"

using namespace msim;

namespace
{

/** Scratch dir per test; threads and faults restored on both ends. */
class BatchTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        resilience::FaultInjector::setGlobalSpec("");
        saved_ = exec::Pool::configuredThreads();
        dir_ = msim::test::scratchDir() /
               ("megsim_batch_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        resilience::FaultInjector::setGlobalSpec("");
        exec::Pool::setConfiguredThreads(saved_);
        std::filesystem::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
    std::size_t saved_ = 1;
};

/** The three-benchmark sub-suite the equivalence tests use. */
const std::vector<std::string> kSuite = {"hcr", "jjo", "spd"};
constexpr std::size_t kFrames = 12;

batch::CampaignConfig
testConfig(const std::string &cacheDir,
           const std::vector<std::string> &benches = kSuite)
{
    batch::CampaignConfig config;
    config.benches = benches;
    config.cacheDir = cacheDir;
    config.frameLimit = kFrames;
    config.megsim.selector.kmeans.seed = 0x4d4547;
    return config;
}

/**
 * What a single-benchmark driver computes: load one benchmark, run
 * the pipeline at the top level, read off the row the campaign
 * report would carry.
 */
batch::BenchmarkReport
sequentialRow(const std::string &alias)
{
    const gfx::SceneTrace scene =
        workloads::buildBenchmark(alias, 1.0, kFrames);
    megsim::BenchmarkData data(
        scene, gpusim::GpuConfig::evaluationScaled(), "");
    megsim::MegsimConfig mc;
    mc.selector.kmeans.seed = 0x4d4547;
    megsim::MegsimPipeline pipeline(data, mc);
    const megsim::MegsimRun run = pipeline.run();

    batch::BenchmarkReport row;
    row.alias = alias;
    row.frames = run.numFrames;
    row.chosenK = run.selection.chosen().k;
    row.representatives = run.numRepresentatives();
    row.reduction = run.reductionFactor();
    for (std::size_t m = 0; m < batch::kNumMetrics; ++m)
        row.errorPercent[m] =
            pipeline.errorPercent(run, batch::kMetrics[m]);
    return row;
}

void
expectSameNumbers(const batch::BenchmarkReport &a,
                  const batch::BenchmarkReport &b,
                  const std::string &context)
{
    EXPECT_EQ(a.alias, b.alias) << context;
    EXPECT_EQ(a.frames, b.frames) << context;
    EXPECT_EQ(a.chosenK, b.chosenK) << context;
    EXPECT_EQ(a.representatives, b.representatives) << context;
    EXPECT_EQ(a.reduction, b.reduction) << context;
    for (std::size_t m = 0; m < batch::kNumMetrics; ++m)
        EXPECT_EQ(a.errorPercent[m], b.errorPercent[m])
            << context << " metric " << batch::kMetricKeys[m];
}

/**
 * The campaign report with every timing-dependent field zeroed: wall
 * clocks and pool utilization legitimately vary run to run (and the
 * thread count is the variable under test), so the canonical form
 * keeps only the deterministic payload the golden comparison guards.
 */
std::string
canonicalReport(batch::CampaignReport report)
{
    report.threads = 0;
    report.wallSeconds = 0.0;
    report.poolUtilization = 0.0;
    for (batch::BenchmarkReport &b : report.benchmarks)
        b.wallSeconds = 0.0;
    return report.toJson().dump() + "\n";
}

} // namespace

TEST_F(BatchTest, ReportJsonRoundTripsBitForBit)
{
    batch::CampaignReport report;
    report.threads = 7;
    for (std::size_t i = 0; i < 3; ++i) {
        batch::BenchmarkReport b;
        b.alias = "b" + std::to_string(i);
        b.frames = 240 + i;
        b.resumedFrames = i;
        b.chosenK = 5 + i;
        b.representatives = 6 + i;
        b.reduction = 240.0 / (6.0 + static_cast<double>(i));
        for (std::size_t m = 0; m < batch::kNumMetrics; ++m)
            b.errorPercent[m] =
                1.0 / 3.0 + static_cast<double>(i * m) * 1e-17;
        b.wallSeconds = 0.1234567890123456789 * (1.0 + i);
        b.cacheStatus = i == 0 ? "fresh" : "rebuilt";
        report.benchmarks.push_back(b);
    }
    report.computeAggregates();
    report.wallSeconds = 12.75;
    report.poolUtilization = 2.0 / 3.0;

    ASSERT_TRUE(report.save(path("r.json")).ok());
    auto loaded = batch::CampaignReport::load(path("r.json"));
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;

    EXPECT_EQ(loaded->threads, report.threads);
    EXPECT_EQ(loaded->wallSeconds, report.wallSeconds);
    EXPECT_EQ(loaded->poolUtilization, report.poolUtilization);
    EXPECT_EQ(loaded->totalFrames, report.totalFrames);
    EXPECT_EQ(loaded->totalRepresentatives,
              report.totalRepresentatives);
    EXPECT_EQ(loaded->meanReduction, report.meanReduction);
    EXPECT_EQ(loaded->suiteReduction, report.suiteReduction);
    for (std::size_t m = 0; m < batch::kNumMetrics; ++m) {
        EXPECT_EQ(loaded->meanErrorPercent[m],
                  report.meanErrorPercent[m]);
        EXPECT_EQ(loaded->maxErrorPercent[m],
                  report.maxErrorPercent[m]);
    }
    ASSERT_EQ(loaded->benchmarks.size(), report.benchmarks.size());
    for (std::size_t i = 0; i < report.benchmarks.size(); ++i) {
        expectSameNumbers(loaded->benchmarks[i], report.benchmarks[i],
                          "row " + std::to_string(i));
        EXPECT_EQ(loaded->benchmarks[i].resumedFrames,
                  report.benchmarks[i].resumedFrames);
        EXPECT_EQ(loaded->benchmarks[i].wallSeconds,
                  report.benchmarks[i].wallSeconds);
        EXPECT_EQ(loaded->benchmarks[i].cacheStatus,
                  report.benchmarks[i].cacheStatus);
    }

    // A report written by a future incompatible schema must refuse to
    // parse rather than silently mis-gate.
    std::ofstream(path("bogus.json"))
        << "{\"schema\": \"megsim-campaign-v999\"}";
    auto bogus = batch::CampaignReport::load(path("bogus.json"));
    ASSERT_FALSE(bogus.ok());
    EXPECT_EQ(bogus.error().code, resilience::Errc::BadVersion);

    // There is one schema: the same report under the retired v1 and
    // v3 tags refuses to load as well.
    const std::string text = report.toJson().dump(0);
    const std::string v2tag = batch::CampaignReport::kSchema;
    for (const char *retired :
         {"megsim-campaign-v1", "megsim-campaign-v3"}) {
        std::string old = text;
        old.replace(old.find(v2tag), v2tag.size(), retired);
        std::ofstream(path("retired.json")) << old;
        auto refused = batch::CampaignReport::load(path("retired.json"));
        ASSERT_FALSE(refused.ok()) << retired;
        EXPECT_EQ(refused.error().code, resilience::Errc::BadVersion)
            << retired;
        EXPECT_NE(refused.error().message.find(retired),
                  std::string::npos)
            << refused.error().message;
    }

    // A row count must be a non-negative integer a double holds
    // exactly; anything else is refused naming the key.
    const std::string frames = "\"frames\":240,";
    for (const char *bad : {"-1", "2.5", "1e400"}) {
        std::string doc = text;
        doc.replace(doc.find(frames), frames.size(),
                    "\"frames\":" + std::string(bad) + ",");
        std::ofstream(path("count.json")) << doc;
        auto refused = batch::CampaignReport::load(path("count.json"));
        ASSERT_FALSE(refused.ok()) << bad;
        EXPECT_EQ(refused.error().code, resilience::Errc::BadFormat)
            << bad;
        EXPECT_NE(refused.error().message.find("'frames'"),
                  std::string::npos)
            << refused.error().message;
    }

    // Reports from the removed sampled cache model refuse to load
    // too, whether the campaign-level mem_mode (written first) or a
    // row-level one (the last) says so.
    const std::string exactMode = "\"mem_mode\":\"exact\"";
    for (const std::size_t at :
         {text.find(exactMode), text.rfind(exactMode)}) {
        ASSERT_NE(at, std::string::npos);
        std::string fast = text;
        fast.replace(at, exactMode.size(), "\"mem_mode\":\"fast\"");
        std::ofstream(path("fast.json")) << fast;
        auto refused = batch::CampaignReport::load(path("fast.json"));
        ASSERT_FALSE(refused.ok()) << "mem_mode at offset " << at;
        EXPECT_EQ(refused.error().code, resilience::Errc::BadVersion);
        EXPECT_NE(refused.error().message.find("'fast'"),
                  std::string::npos)
            << refused.error().message;
    }
}

TEST_F(BatchTest, JsonParserRejectsMalformedInput)
{
    EXPECT_TRUE(util::Json::parse("{\"a\": [1, 2.5, null]}").ok());
    EXPECT_FALSE(util::Json::parse("{\"a\": }").ok());
    EXPECT_FALSE(util::Json::parse("{\"a\": 1} trailing").ok());
    EXPECT_FALSE(util::Json::parse("{\"a\": \"\\q\"}").ok());
    EXPECT_FALSE(util::Json::parse("").ok());
}

TEST_F(BatchTest, ThresholdCheckFlagsEveryBreachedLimit)
{
    batch::CampaignReport report;
    batch::BenchmarkReport b;
    b.alias = "hcr";
    b.frames = 100;
    b.chosenK = 10;
    b.representatives = 10;
    b.reduction = 10.0;
    b.errorPercent[0] = 2.5; // cycles
    report.benchmarks.push_back(b);
    report.computeAggregates();

    batch::Thresholds permissive;
    EXPECT_TRUE(batch::checkThresholds(report, permissive).empty());

    batch::Thresholds strict;
    strict.maxErrorPercent[0] = 1.0;
    strict.minReduction = 20.0;
    strict.minMeanReduction = 20.0;
    const std::vector<std::string> violations =
        batch::checkThresholds(report, strict);
    ASSERT_EQ(violations.size(), 3u);
    EXPECT_NE(violations[0].find("hcr"), std::string::npos);
    EXPECT_NE(violations[0].find("cycles"), std::string::npos);

    // Thresholds refuse a mismatched schema too.
    std::ofstream(path("t.json")) << "{\"schema\": \"nope\"}";
    auto bad = batch::Thresholds::load(path("t.json"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, resilience::Errc::BadVersion);

    // Parsing fails closed: a misspelled key, an unknown metric, a
    // block no gate reads or a non-number limit is a load error naming
    // the key, never a silently disabled gate.
    const struct
    {
        const char *body;
        const char *key;
    } refused[] = {
        {"\"min_reducton\": 3.0", "min_reducton"},
        {"\"min_mean_reduction\": \"3\"", "min_mean_reduction"},
        {"\"max_latency\": {\"cycles\": 9.0}", "max_latency"},
        {"\"max_error_percent\": {\"l3\": 1.0}", "max_error_percent.l3"},
        {"\"max_error_percent\": {\"l2\": null}", "max_error_percent.l2"},
        {"\"max_error_percent\": 5.0", "max_error_percent"},
        {"\"suite\": {\"min_gian\": 1.3}", "suite"},
        {"\"suite\": {\"max_error_percent\": {\"l3\": 1.0}}",
         "suite"},
        {"\"suite\": {\"min_gain\": true}", "suite"},
        {"\"suite\": 1.3", "suite"},
        // The retired suite-clustering block of ci/thresholds.json,
        // verbatim: no gate reads it any more.
        {R"("suite": {
    "max_error_percent": {
      "cycles": 4.0,
      "dram": 3.0,
      "l2": 1.0,
      "tile": 2.5
    },
    "min_gain": 1.3
  })",
         "suite"},
    };
    for (const auto &c : refused) {
        std::ofstream(path("t.json"))
            << "{\"schema\": \"megsim-thresholds-v1\", " << c.body
            << "}";
        auto loaded = batch::Thresholds::load(path("t.json"));
        ASSERT_FALSE(loaded.ok()) << c.body;
        EXPECT_EQ(loaded.error().code, resilience::Errc::BadFormat)
            << c.body;
        EXPECT_NE(loaded.error().message.find(std::string("'") +
                                              c.key + "'"),
                  std::string::npos)
            << loaded.error().message;
    }

    // The known keys, the comment included, still load.
    std::ofstream(path("t.json"))
        << "{\"schema\": \"megsim-thresholds-v1\", \"_comment\": \"\","
           " \"max_error_percent\": {\"tile\": 4.0},"
           " \"min_reduction\": 2.0, \"min_mean_reduction\": 3.0}";
    auto known = batch::Thresholds::load(path("t.json"));
    ASSERT_TRUE(known.ok()) << known.error().message;
    EXPECT_EQ(known->maxErrorPercent[3], 4.0);
    EXPECT_EQ(known->minMeanReduction, 3.0);
}

TEST_F(BatchTest, CampaignMatchesSequentialRunsAtEveryThreadCount)
{
    exec::Pool::setConfiguredThreads(1);
    std::vector<batch::BenchmarkReport> reference;
    for (const std::string &alias : kSuite)
        reference.push_back(sequentialRow(alias));

    for (std::size_t threads : {std::size_t(1), std::size_t(2),
                                std::size_t(8)}) {
        exec::Pool::setConfiguredThreads(threads);
        const std::string cache =
            path("cache_t" + std::to_string(threads));
        std::filesystem::create_directories(cache);
        batch::Campaign campaign(testConfig(cache));
        auto report = campaign.run();
        ASSERT_TRUE(report.ok()) << report.error().message;
        ASSERT_EQ(report->benchmarks.size(), kSuite.size());
        EXPECT_EQ(report->threads, threads);
        for (std::size_t i = 0; i < kSuite.size(); ++i)
            expectSameNumbers(report->benchmarks[i], reference[i],
                              std::to_string(threads) + " threads");
    }
}

TEST_F(BatchTest, CorruptedCacheRegeneratesToTheSameReport)
{
    exec::Pool::setConfiguredThreads(4);
    const std::string cache = path("cache");
    std::filesystem::create_directories(cache);

    batch::Campaign first(testConfig(cache));
    auto before = first.run();
    ASSERT_TRUE(before.ok()) << before.error().message;
    for (const batch::BenchmarkReport &b : before->benchmarks)
        EXPECT_EQ(b.cacheStatus, "built") << b.alias;

    // Flip bytes in jjo's stats cache: the checksum check must
    // classify it Invalid and the campaign must rebuild it on pool
    // workers while hcr and spd analyze from their fresh caches.
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("jjo", 1.0, kFrames);
    megsim::BenchmarkData probe(
        scene, gpusim::GpuConfig::evaluationScaled(), cache);
    const std::string victim = probe.cachePath("stats");
    ASSERT_TRUE(std::filesystem::exists(victim));
    {
        std::fstream f(victim, std::ios::in | std::ios::out);
        f.seekp(40);
        f << "XXXXXXXX";
    }

    batch::Campaign second(testConfig(cache));
    auto after = second.run();
    ASSERT_TRUE(after.ok()) << after.error().message;
    ASSERT_EQ(after->benchmarks.size(), kSuite.size());
    EXPECT_EQ(after->benchmarks[0].cacheStatus, "fresh");
    EXPECT_EQ(after->benchmarks[1].cacheStatus, "rebuilt");
    EXPECT_EQ(after->benchmarks[2].cacheStatus, "fresh");
    for (std::size_t i = 0; i < kSuite.size(); ++i)
        expectSameNumbers(after->benchmarks[i],
                          before->benchmarks[i], "after corruption");
}

TEST_F(BatchTest, SigkilledCampaignResumesFromTheJournal)
{
    const std::vector<std::string> benches = {"hcr", "jjo"};
    const std::string cache = path("cache");
    std::filesystem::create_directories(cache);

    // Uninterrupted reference in a separate cache dir.
    exec::Pool::setConfiguredThreads(2);
    batch::Campaign ref(testConfig(path("ref_cache"), benches));
    std::filesystem::create_directories(path("ref_cache"));
    auto expected = ref.run();
    ASSERT_TRUE(expected.ok()) << expected.error().message;

    // Child: die by SIGKILL right after hcr's frame 2 is journaled.
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        exec::Pool::setConfiguredThreads(2);
        resilience::FaultInjector::setGlobalSpec("run.kill:frame=2");
        batch::Campaign doomed(testConfig(cache, benches));
        (void)doomed.run();
        _exit(42); // unreachable: the fault fires first
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Resume: hcr picks up its three journaled frames, everything
    // else regenerates, and the report matches the clean run.
    exec::Pool::setConfiguredThreads(2);
    batch::Campaign survivor(testConfig(cache, benches));
    auto resumed = survivor.run();
    ASSERT_TRUE(resumed.ok()) << resumed.error().message;
    ASSERT_EQ(resumed->benchmarks.size(), benches.size());
    EXPECT_EQ(resumed->benchmarks[0].resumedFrames, 3u);
    for (std::size_t i = 0; i < benches.size(); ++i)
        expectSameNumbers(resumed->benchmarks[i],
                          expected->benchmarks[i], "resumed");
}

TEST_F(BatchTest, CampaignSurvivesKillAfterABenchmarksLastFrame)
{
    // A kill right after a benchmark's last frame is journaled: its
    // journals are already its cache, so the rerun loads it fresh,
    // completes the rest and reproduces the clean run's numbers
    // exactly.
    const std::vector<std::string> benches = {"hcr", "jjo"};
    const std::string cache = path("cache");
    std::filesystem::create_directories(cache);

    exec::Pool::setConfiguredThreads(2);
    batch::Campaign ref(testConfig(path("ref_cache"), benches));
    std::filesystem::create_directories(path("ref_cache"));
    auto expected = ref.run();
    ASSERT_TRUE(expected.ok()) << expected.error().message;

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        exec::Pool::setConfiguredThreads(2);
        resilience::FaultInjector::setGlobalSpec(
            "run.kill:frame=" + std::to_string(kFrames - 1));
        batch::Campaign doomed(testConfig(cache, benches));
        (void)doomed.run();
        _exit(42); // unreachable: hcr's last frame kills us
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    exec::Pool::setConfiguredThreads(2);
    batch::Campaign survivor(testConfig(cache, benches));
    auto resumed = survivor.run();
    ASSERT_TRUE(resumed.ok()) << resumed.error().message;
    ASSERT_EQ(resumed->benchmarks.size(), benches.size());
    EXPECT_EQ(resumed->benchmarks[0].cacheStatus, "fresh");
    for (std::size_t i = 0; i < benches.size(); ++i)
        expectSameNumbers(resumed->benchmarks[i],
                          expected->benchmarks[i], "last-frame kill");
}

#ifndef MEGSIM_BATCH_GOLDEN_DIR
#error "MEGSIM_BATCH_GOLDEN_DIR must point at tests/batch/golden"
#endif

TEST_F(BatchTest, CanonicalReportMatchesGoldenAtEveryThreadCount)
{
    // Golden stats-invariance gate for the hot-path optimization work:
    // the canonical campaign report (timing fields zeroed) is committed
    // under tests/batch/golden and every run must reproduce it
    // byte-for-byte at 1, 2 and 8 threads. Regenerate only after an
    // intentional model change, with MEGSIM_REGEN_GOLDEN=1.
    const std::string golden =
        std::string(MEGSIM_BATCH_GOLDEN_DIR) + "/campaign_hcr_jjo_spd.json";

    auto runAt = [&](std::size_t threads) {
        exec::Pool::setConfiguredThreads(threads);
        const std::string cache =
            path("golden_cache_t" + std::to_string(threads));
        std::filesystem::create_directories(cache);
        batch::Campaign campaign(testConfig(cache));
        auto report = campaign.run();
        EXPECT_TRUE(report.ok()) << report.error().message;
        return report.ok() ? canonicalReport(*report) : std::string();
    };

    const char *regen = std::getenv("MEGSIM_REGEN_GOLDEN");
    if (regen && regen[0] == '1') {
        std::ofstream(golden, std::ios::binary | std::ios::trunc)
            << runAt(1);
        return;
    }

    std::ifstream in(golden, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string expected = buf.str();
    ASSERT_FALSE(expected.empty())
        << golden << " missing — run with MEGSIM_REGEN_GOLDEN=1 first";

    for (std::size_t threads :
         {std::size_t(1), std::size_t(2), std::size_t(8)})
        EXPECT_EQ(runAt(threads), expected)
            << "campaign report diverged at " << threads << " threads";
}
