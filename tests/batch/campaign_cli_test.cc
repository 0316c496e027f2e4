/**
 * @file
 * End-to-end test for `megsim-cli campaign`. The harness passes the
 * built binary's path as argv[1] (see tests/CMakeLists.txt). Covers
 * the report artifact, the --check gate, the run ledger, report
 * diffing, and the CLI's distinct exit codes: 0 ok, 3 load failure,
 * 4 cache verification failure, 5 threshold breach, 6 report diff
 * mismatch, 7 invalid ledger.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "scratch_dir.hh"

namespace
{

std::string cliPath;

std::string
slurp(const std::filesystem::path &path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

std::filesystem::path
tempDir()
{
    const std::filesystem::path dir =
        msim::test::scratchDir() /
        "megsim_campaign_cli_test";
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * Run the CLI with @p args under a bounded frame limit and a cache
 * dir inside the scratch dir; returns the CLI's exit code. @p extraEnv
 * is prepended as additional VAR=VALUE assignments.
 */
int
runCli(const std::string &args, const std::filesystem::path &log,
       const std::string &extraEnv = "")
{
    const std::string cmd =
        extraEnv + (extraEnv.empty() ? "" : " ") +
        "MEGSIM_FRAME_LIMIT=6 MEGSIM_CACHE_DIR=" +
        (tempDir() / "cache").string() + " " + cliPath + " " + args +
        " > " + log.string() + " 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

} // namespace

TEST(CampaignCli, WritesVersionedReportAndExitsZero)
{
    ASSERT_FALSE(cliPath.empty()) << "pass megsim-cli path as argv[1]";
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path json = dir / "campaign.json";
    const std::filesystem::path log = dir / "run.log";

    const int rc = runCli(
        "campaign --benches hcr,jjo --out " + json.string(), log);
    ASSERT_EQ(rc, 0) << slurp(log);

    const std::string text = slurp(json);
    ASSERT_FALSE(text.empty());
    EXPECT_NE(text.find("\"schema\": \"megsim-campaign-v2\""),
              std::string::npos);
    EXPECT_NE(text.find("\"alias\": \"hcr\""), std::string::npos);
    EXPECT_NE(text.find("\"alias\": \"jjo\""), std::string::npos);
    EXPECT_NE(text.find("\"pool_utilization\""), std::string::npos);
    EXPECT_NE(slurp(log).find("report: "), std::string::npos);
}

TEST(CampaignCli, CheckGatePassesPermissiveThresholds)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path limits = dir / "permissive.json";
    std::ofstream(limits)
        << "{\"schema\": \"megsim-thresholds-v1\",\n"
           " \"max_error_percent\": {\"cycles\": 100.0}}\n";

    const std::filesystem::path log = dir / "pass.log";
    const int rc = runCli("campaign --benches hcr --out " +
                              (dir / "p.json").string() + " --check " +
                              limits.string(),
                          log);
    EXPECT_EQ(rc, 0) << slurp(log);
    EXPECT_NE(slurp(log).find("threshold check passed"),
              std::string::npos);
}

TEST(CampaignCli, ThresholdBreachExitsFive)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path limits = dir / "strict.json";
    std::ofstream(limits)
        << "{\"schema\": \"megsim-thresholds-v1\",\n"
           " \"min_reduction\": 1000000.0}\n";

    const std::filesystem::path log = dir / "breach.log";
    const int rc = runCli("campaign --benches hcr --out " +
                              (dir / "b.json").string() + " --check " +
                              limits.string(),
                          log);
    EXPECT_EQ(rc, 5) << slurp(log);
    EXPECT_NE(slurp(log).find("threshold check FAILED"),
              std::string::npos);
}

TEST(CampaignCli, UnknownBenchmarkExitsThree)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path log = dir / "unknown.log";
    const int rc = runCli("campaign --benches nosuchbench", log);
    EXPECT_EQ(rc, 3) << slurp(log);
}

TEST(CampaignCli, MissingThresholdsFileExitsThreeBeforeRunning)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path log = dir / "badcheck.log";
    const int rc = runCli(
        "campaign --benches hcr --check /nonexistent/limits.json",
        log);
    EXPECT_EQ(rc, 3) << slurp(log);
    // The failing path is named, and the campaign never started.
    EXPECT_NE(slurp(log).find("/nonexistent/limits.json"),
              std::string::npos);
}

TEST(CampaignCli, CorruptCacheFailsVerifyWithExitFour)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path cache = dir / "cache";
    const std::filesystem::path log = dir / "verify.log";

    // Populate the cache, then damage every stats journal in it.
    ASSERT_EQ(runCli("campaign --benches hcr --out " +
                         (dir / "v.json").string(),
                     log),
              0)
        << slurp(log);
    ASSERT_TRUE(std::filesystem::exists(cache));
    bool corrupted = false;
    for (const auto &entry :
         std::filesystem::directory_iterator(cache)) {
        const std::string name = entry.path().filename().string();
        if (name.find(".ckpt.stats.jnl") == std::string::npos)
            continue;
        std::fstream f(entry.path(), std::ios::in | std::ios::out);
        f.seekp(0);
        f << "CORRUPTED";
        corrupted = true;
    }
    ASSERT_TRUE(corrupted) << "no stats journals found";

    const int rc = runCli("verify-cache --bench hcr --cache-dir " +
                              cache.string(),
                          log);
    EXPECT_EQ(rc, 4) << slurp(log);
    EXPECT_NE(slurp(log).find("CORRUPT"), std::string::npos);
}

TEST(CampaignCli, WritesValidRunLedgerNextToReport)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path json = dir / "ledgered.json";
    const std::filesystem::path ledger = dir / "ledgered.run.jsonl";
    const std::filesystem::path log = dir / "ledger.log";

    ASSERT_EQ(runCli("campaign --benches hcr --out " + json.string(),
                     log),
              0)
        << slurp(log);
    ASSERT_TRUE(std::filesystem::exists(ledger))
        << "default ledger path derives from --out";
    const std::string text = slurp(ledger);
    EXPECT_NE(text.find("\"schema\":\"megsim-run-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"event\":\"run_start\""), std::string::npos);
    EXPECT_NE(text.find("\"event\":\"run_end\""), std::string::npos);

    // The strict validator accepts what the campaign just wrote.
    EXPECT_EQ(runCli("ledger --validate " + ledger.string(), log), 0)
        << slurp(log);
    EXPECT_NE(slurp(log).find("ledger ok"), std::string::npos);
}

TEST(CampaignCli, CorruptLedgerFailsValidationWithExitSeven)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path ledger = dir / "corrupt.run.jsonl";
    const std::filesystem::path log = dir / "corrupt.log";

    ASSERT_EQ(runCli("campaign --benches hcr --out " +
                         (dir / "corrupt.json").string() +
                         " --ledger " + ledger.string(),
                     log),
              0)
        << slurp(log);
    // Smuggle an undeclared field into an otherwise valid stream.
    std::ofstream(ledger, std::ios::app)
        << "{\"schema\":\"megsim-run-v1\",\"seq\":99,"
           "\"event\":\"cache\",\"t\":0.0,\"bench\":\"hcr\","
           "\"status\":\"hot\",\"resumed_frames\":0,"
           "\"drive_by\":1}\n";

    EXPECT_EQ(runCli("ledger --validate " + ledger.string(), log), 7)
        << slurp(log);
    EXPECT_NE(slurp(log).find("drive_by"), std::string::npos);
}

TEST(CampaignCli, DiffToleratesThreadCountAndHostClock)
{
    // The acceptance criterion for the telemetry PR: simulated output
    // is bit-identical across MEGSIM_THREADS, so reports from runs at
    // different thread counts diff clean modulo the documented
    // host-side fields (wall seconds, pool utilization, threads,
    // cache status).
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path a = dir / "t1.json";
    const std::filesystem::path b = dir / "t4.json";
    const std::filesystem::path log = dir / "diff.log";

    ASSERT_EQ(runCli("campaign --benches hcr,jjo --threads 1 --out " +
                         a.string(),
                     log),
              0)
        << slurp(log);
    ASSERT_EQ(runCli("campaign --benches hcr,jjo --threads 4 --out " +
                         b.string(),
                     log),
              0)
        << slurp(log);

    const int rc = runCli(
        "campaign --diff " + a.string() + " " + b.string(), log);
    EXPECT_EQ(rc, 0) << slurp(log);
    EXPECT_NE(slurp(log).find("reports match"), std::string::npos);
}

TEST(CampaignCli, DiffOfDifferentReportsExitsSix)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path a = dir / "set_a.json";
    const std::filesystem::path b = dir / "set_b.json";
    const std::filesystem::path log = dir / "diff6.log";

    ASSERT_EQ(runCli("campaign --benches hcr --out " + a.string(),
                     log),
              0)
        << slurp(log);
    ASSERT_EQ(runCli("campaign --benches hcr,jjo --out " + b.string(),
                     log),
              0)
        << slurp(log);

    const int rc = runCli(
        "campaign --diff " + a.string() + " " + b.string(), log);
    EXPECT_EQ(rc, 6) << slurp(log);

    // Reports of removed modes are not compared at all: one from the
    // sampled cache model and copies under the retired v1 and v3
    // schema tags each fail to load (exit 3), naming the file.
    const std::string text = slurp(a);
    const struct
    {
        std::string from;
        std::string to;
        const char *file;
    } retired[] = {
        {"\"mem_mode\": \"exact\"", "\"mem_mode\": \"fast\"",
         "sampled.json"},
        {"megsim-campaign-v2", "megsim-campaign-v1", "v1.json"},
        {"megsim-campaign-v2", "megsim-campaign-v3", "v3.json"},
    };
    for (const auto &r : retired) {
        std::string copy = text;
        const std::size_t at = copy.find(r.from);
        ASSERT_NE(at, std::string::npos) << r.from;
        copy.replace(at, r.from.size(), r.to);
        const std::filesystem::path old = dir / r.file;
        std::ofstream(old) << copy;
        const int loadRc = runCli(
            "campaign --diff " + a.string() + " " + old.string(), log);
        EXPECT_EQ(loadRc, 3) << r.file << ": " << slurp(log);
        EXPECT_NE(slurp(log).find(old.string()), std::string::npos)
            << slurp(log);
    }
}

int
main(int argc, char **argv)
{
    if (argc > 1 && argv[1][0] != '-') {
        cliPath = argv[1];
        // Hide the extra argument from gtest's flag parser.
        for (int i = 1; i + 1 < argc; ++i)
            argv[i] = argv[i + 1];
        --argc;
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
