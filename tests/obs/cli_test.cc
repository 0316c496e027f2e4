/**
 * @file
 * End-to-end test for tools/megsim-cli. The harness passes the built
 * binary's path as argv[1] (see tests/CMakeLists.txt); the test runs
 * the real executable and validates its outputs, covering the
 * acceptance path `megsim-cli trace --frames 0:3 --out trace.json`.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

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

/** Run the CLI with @p args, capture stdout into a file. */
int
runCli(const std::string &args, const std::filesystem::path &stdoutPath)
{
    const std::string cmd =
        cliPath + " " + args + " > " + stdoutPath.string() + " 2>&1";
    return std::system(cmd.c_str());
}

bool
jsonParses(const std::string &text)
{
    std::vector<char> stack;
    bool inString = false;
    bool escaped = false;
    for (char c : text) {
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        switch (c) {
          case '"': inString = true; break;
          case '[': stack.push_back(']'); break;
          case '{': stack.push_back('}'); break;
          case ']':
          case '}':
            if (stack.empty() || stack.back() != c)
                return false;
            stack.pop_back();
            break;
          default: break;
        }
    }
    return stack.empty() && !inString;
}

std::filesystem::path
tempDir()
{
    const std::filesystem::path dir =
        msim::test::scratchDir() / "megsim_cli_test";
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace

TEST(MegsimCli, TraceExportsChromeJsonCoveringEveryStage)
{
    ASSERT_FALSE(cliPath.empty()) << "pass megsim-cli path as argv[1]";
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path json = dir / "trace.json";
    const std::filesystem::path log = dir / "trace.log";

    const int rc = runCli(
        "trace --bench hcr --frames 0:3 --out " + json.string(), log);
    ASSERT_EQ(rc, 0) << slurp(log);

    const std::string text = slurp(json);
    ASSERT_FALSE(text.empty());
    EXPECT_TRUE(jsonParses(text));
    EXPECT_NE(text.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(text.find("\"ph\""), std::string::npos);
    EXPECT_NE(text.find("\"ts\""), std::string::npos);
    EXPECT_NE(text.find("\"name\""), std::string::npos);

    // At least one event per pipeline stage.
    const char *stages[] = {
        "vertex_fetch", "vertex_shader", "primitive_assembly",
        "binning",      "rasterizer",    "early_z",
        "fragment_shader", "blend", "tile_flush",
    };
    for (const char *stage : stages)
        EXPECT_NE(text.find(std::string("\"") + stage + "\""),
                  std::string::npos)
            << "missing trace events for stage " << stage;
}

TEST(MegsimCli, TraceCsvMirrorsTheRing)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path json = dir / "t.json";
    const std::filesystem::path csv = dir / "t.csv";
    const std::filesystem::path log = dir / "t.log";

    const int rc = runCli("trace --bench hcr --frames 0:1 --out " +
                              json.string() + " --csv " + csv.string(),
                          log);
    ASSERT_EQ(rc, 0) << slurp(log);
    const std::string text = slurp(csv);
    EXPECT_NE(text.find("name,category,frame,begin_cycle,end_cycle,arg"),
              std::string::npos);
    EXPECT_NE(text.find("vertex_shader"), std::string::npos);
}

TEST(MegsimCli, TraceRingDropIsReportedOnce)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path json = dir / "small-ring.json";
    const std::filesystem::path log = dir / "small-ring.log";

    ::setenv("MEGSIM_TRACE_CAPACITY", "64", 1);
    const int rc = runCli(
        "trace --bench hcr --frames 0:1 --out " + json.string(), log);
    ::unsetenv("MEGSIM_TRACE_CAPACITY");
    ASSERT_EQ(rc, 0) << slurp(log);
    const std::string text = slurp(log);
    const std::size_t at = text.find("dropped");
    ASSERT_NE(at, std::string::npos) << text;
    EXPECT_EQ(text.find("dropped", at + 1), std::string::npos) << text;
    EXPECT_NE(text.find("capacity 64"), std::string::npos) << text;
}

TEST(MegsimCli, OnlyTraceSizesTheTraceRing)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path log = dir / "huge-ring.log";

    // The capacity is read everywhere but allocated only by `trace`:
    // a 2^45-event ring (1.4 PB of events) leaves a campaign's
    // simulators untouched.
    ::setenv("MEGSIM_TRACE_CAPACITY", "35184372088832", 1);
    ::setenv("MEGSIM_FRAME_LIMIT", "4", 1);
    const int rc = runCli("campaign --benches hcr --cache-dir " +
                              (dir / "huge-ring-cache").string() +
                              " --out " +
                              (dir / "huge-ring.json").string(),
                          log);
    ::unsetenv("MEGSIM_FRAME_LIMIT");
    ASSERT_TRUE(WIFEXITED(rc)) << slurp(log);
    EXPECT_EQ(WEXITSTATUS(rc), 0) << slurp(log);

    // `trace` does allocate it, so it refuses a ring larger than the
    // machine's memory before building anything: a usage error (exit
    // 2) naming the variable, its value and the bytes it asks for.
    const int traced = runCli("trace --bench hcr --frames 0:1 --out " +
                                  (dir / "huge-ring.trace.json").string(),
                              log);
    ::unsetenv("MEGSIM_TRACE_CAPACITY");
    ASSERT_TRUE(WIFEXITED(traced)) << slurp(log);
    EXPECT_EQ(WEXITSTATUS(traced), 2) << slurp(log);
    EXPECT_NE(slurp(log).find("MEGSIM_TRACE_CAPACITY=35184372088832 asks "
                              "for a 1407374883553280-byte trace ring"),
              std::string::npos)
        << slurp(log);
    EXPECT_FALSE(std::filesystem::exists(dir / "huge-ring.trace.json"));
}

TEST(MegsimCli, TraceToAnUnwritablePathExitsOne)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path log = dir / "unwritable.log";
    const std::string json = "/nonexistent/dir/t.json";
    const std::string csv = "/nonexistent/dir/t.csv";

    // A write failure is a runtime failure that names the path (exit
    // 1), not an internal invariant violation (SIGABRT).
    int rc = runCli("trace --bench hcr --frames 0:1 --out " + json, log);
    ASSERT_TRUE(WIFEXITED(rc)) << slurp(log);
    EXPECT_EQ(WEXITSTATUS(rc), 1) << slurp(log);
    EXPECT_NE(slurp(log).find("'" + json + "'"), std::string::npos)
        << slurp(log);

    rc = runCli("trace --bench hcr --frames 0:1 --out " +
                    (dir / "writable.json").string() + " --csv " + csv,
                log);
    ASSERT_TRUE(WIFEXITED(rc)) << slurp(log);
    EXPECT_EQ(WEXITSTATUS(rc), 1) << slurp(log);
    EXPECT_NE(slurp(log).find("'" + csv + "'"), std::string::npos)
        << slurp(log);
}

TEST(MegsimCli, UnwritableTimelineNeverFailsAFinishedCampaign)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path log = dir / "timeline.log";
    const std::filesystem::path cache = dir / "timeline-cache";
    const std::filesystem::path report = dir / "timeline-report.json";
    const std::string timeline = "/nonexistent/dir/t.json";

    // Telemetry never fails a run that produced a valid report: the
    // report, its table and the ledger stand, and the timeline write
    // warns, naming the path.
    ::setenv("MEGSIM_FRAME_LIMIT", "4", 1);
    const int rc = runCli("campaign --benches hcr --cache-dir " +
                              cache.string() + " --out " +
                              report.string() + " --timeline " + timeline,
                          log);
    ::unsetenv("MEGSIM_FRAME_LIMIT");
    ASSERT_TRUE(WIFEXITED(rc)) << slurp(log);
    EXPECT_EQ(WEXITSTATUS(rc), 0) << slurp(log);
    const std::string text = slurp(log);
    EXPECT_NE(text.find("cannot write timeline '" + timeline + "'"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("benchmark"), std::string::npos) << text;
    EXPECT_TRUE(std::filesystem::exists(report)) << text;
    std::filesystem::path ledger = report;
    ledger.replace_extension(".run.jsonl");
    EXPECT_TRUE(std::filesystem::exists(ledger)) << text;
}

TEST(MegsimCli, StatsDumpsRegistryCounters)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path log = dir / "stats.log";

    const int rc = runCli("stats --bench hcr --frame 0", log);
    ASSERT_EQ(rc, 0) << slurp(log);
    const std::string text = slurp(log);
    // The registry prints an indented tree: gpu / <unit> / <stat>.
    EXPECT_NE(text.find("gpu\n"), std::string::npos) << text;
    EXPECT_NE(text.find("  l2\n"), std::string::npos);
    EXPECT_NE(text.find("  dram\n"), std::string::npos);
    EXPECT_NE(text.find("  frame\n"), std::string::npos);
    EXPECT_NE(text.find("    cycles"), std::string::npos);
    EXPECT_NE(text.find("    transactions"), std::string::npos);
}

TEST(MegsimCli, StatsFilterRestrictsOutput)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path log = dir / "filtered.log";

    const int rc =
        runCli("stats --bench hcr --frame 0 --filter gpu.l2.*", log);
    ASSERT_EQ(rc, 0) << slurp(log);
    const std::string text = slurp(log);
    EXPECT_NE(text.find("  l2\n"), std::string::npos);
    EXPECT_EQ(text.find("raster"), std::string::npos) << text;
}

TEST(MegsimCli, BadUsageFailsCleanly)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path log = dir / "usage.log";
    EXPECT_NE(runCli("frobnicate", log), 0);
    EXPECT_NE(slurp(log).find("usage:"), std::string::npos);

    // A retired option is an unknown option (usage, exit 2), never a
    // silent no-op.
    const int retired = runCli("campaign --suite-cluster", log);
    ASSERT_TRUE(WIFEXITED(retired));
    EXPECT_EQ(WEXITSTATUS(retired), 2) << slurp(log);
    EXPECT_NE(slurp(log).find("unknown option '--suite-cluster'"),
              std::string::npos)
        << slurp(log);

    // So is a scale that is not a finite number above 0.
    for (const char *bad : {"0", "-1", "abc", "nan", "inf"}) {
        const int rc = runCli(
            std::string("stats --bench hcr --frame 0 --scale ") + bad, log);
        ASSERT_TRUE(WIFEXITED(rc)) << bad;
        EXPECT_EQ(WEXITSTATUS(rc), 2) << bad << ": " << slurp(log);
        EXPECT_NE(slurp(log).find("--scale"), std::string::npos)
            << slurp(log);
    }

    // And every other number that is not the number its option takes,
    // named by the option, before anything runs (no case here would
    // start a campaign or a server if the number were taken).
    const struct
    {
        const char *args;
        const char *option;
    } badNumbers[] = {
        {"stats --bench hcr --frame 5x", "--frame"},
        {"stats --bench hcr --frame -1", "--frame"},
        {"trace --bench hcr --frames 0:3x", "--frames"},
        {"trace --bench hcr --frames 3:1", "--frames"},
        {"stats --bench hcr --frame 0 --threads 2x", "--threads"},
        {"stats --bench hcr --frame 0 --threads 0", "--threads"},
        {"serve --workers 1.5", "--workers"},
        {"serve --max-requests 2x", "--max-requests"},
        {"serve --max-inflight 0", "--max-inflight"},
        {"submit --weight abc", "--weight"},
        {"submit --weight 0", "--weight"},
    };
    for (const auto &bad : badNumbers) {
        const int rc = runCli(bad.args, log);
        ASSERT_TRUE(WIFEXITED(rc)) << bad.args;
        EXPECT_EQ(WEXITSTATUS(rc), 2) << bad.args << ": " << slurp(log);
        EXPECT_NE(slurp(log).find(std::string(bad.option) + " needs"),
                  std::string::npos)
            << bad.args << ": " << slurp(log);
    }

    // A telemetry flag that nothing in the command reads is refused,
    // naming the option: only campaign reports attribution, and only
    // campaign and serve write a timeline. No case here would start a
    // campaign or a server if the flag were taken.
    const std::string scratch = dir.string();
    const struct
    {
        std::string args;
        const char *refusal;
    } unread[] = {
        {"verify-cache --bench hcr --cache-dir " + scratch + " --attrib",
         "--attrib is read by campaign only"},
        {"verify-cache --bench hcr --cache-dir " + scratch +
             " --timeline " + scratch + "/v.json",
         "--timeline is read by campaign and serve only"},
        {"stats --bench hcr --frame 0 --attrib",
         "--attrib is read by campaign only"},
        {"trace --bench hcr --frames 0:1 --out " + scratch +
             "/unread.json --timeline " + scratch + "/u.json",
         "--timeline is read by campaign and serve only"},
        {"submit --socket " + scratch + "/none.sock --attrib",
         "--attrib is read by campaign only"},
        {"serve --attrib", "--attrib is read by campaign only"},
        {"ledger --validate " + scratch + "/none.jsonl --timeline t.json",
         "--timeline is read by campaign and serve only"},
    };
    for (const auto &bad : unread) {
        const int rc = runCli(bad.args, log);
        ASSERT_TRUE(WIFEXITED(rc)) << bad.args;
        EXPECT_EQ(WEXITSTATUS(rc), 2) << bad.args << ": " << slurp(log);
        EXPECT_NE(slurp(log).find(bad.refusal), std::string::npos)
            << bad.args << ": " << slurp(log);
    }

    // The retired perf subcommand is an unknown command, and its
    // options are unknown options.
    const int perf = runCli("perf", log);
    ASSERT_TRUE(WIFEXITED(perf));
    EXPECT_EQ(WEXITSTATUS(perf), 2) << slurp(log);
    EXPECT_NE(slurp(log).find("unknown command 'perf'"), std::string::npos)
        << slurp(log);
    for (const char *gone : {"--compare", "--band", "--strict",
                             "--history"}) {
        const int rc = runCli(std::string("ledger ") + gone, log);
        ASSERT_TRUE(WIFEXITED(rc)) << gone;
        EXPECT_EQ(WEXITSTATUS(rc), 2) << gone << ": " << slurp(log);
        EXPECT_NE(slurp(log).find(std::string("unknown option '") + gone),
                  std::string::npos)
            << slurp(log);
    }
}

TEST(MegsimCli, MalformedThreadCountWarnsAndUsesTheHardware)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path log = dir / "threads.log";
    const std::filesystem::path cache = dir / "threads-cache";

    // MEGSIM_THREADS=2x is not 2 threads: it warns, naming the
    // variable and the value, and the pool takes the hardware count.
    const char *outer = std::getenv("MEGSIM_THREADS");
    const bool hadOuter = outer != nullptr;
    const std::string saved = hadOuter ? outer : "";
    ::setenv("MEGSIM_THREADS", "2x", 1);
    ::setenv("MEGSIM_FRAME_LIMIT", "2", 1);
    const int rc =
        runCli("resume --bench hcr --cache-dir " + cache.string(), log);
    ::unsetenv("MEGSIM_FRAME_LIMIT");
    if (hadOuter)
        ::setenv("MEGSIM_THREADS", saved.c_str(), 1);
    else
        ::unsetenv("MEGSIM_THREADS");
    ASSERT_TRUE(WIFEXITED(rc)) << slurp(log);
    EXPECT_EQ(WEXITSTATUS(rc), 0) << slurp(log);
    const std::string text = slurp(log);
    EXPECT_NE(text.find("MEGSIM_THREADS='2x'"), std::string::npos) << text;
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_NE(text.find(", " + std::to_string(hw ? hw : 1) + " threads"),
              std::string::npos)
        << text;
}

TEST(MegsimCli, MalformedFrameLimitWarnsAndReadsAsUnset)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path log = dir / "limit.log";
    const std::filesystem::path cache = dir / "limit-cache";

    const std::filesystem::path unsetLog = dir / "unset.log";
    const std::string verify =
        "verify-cache --bench hcr --cache-dir " + cache.string();
    ASSERT_EQ(runCli(verify, unsetLog), 0) << slurp(unsetLog);

    // The cache names embed the scene hash: the same names as unset
    // mean the same full-length scene.
    ::setenv("MEGSIM_FRAME_LIMIT", "4x", 1);
    const int rc = runCli(verify, log);
    ::unsetenv("MEGSIM_FRAME_LIMIT");
    ASSERT_TRUE(WIFEXITED(rc)) << slurp(log);
    EXPECT_EQ(WEXITSTATUS(rc), 0) << slurp(log);
    const std::string text = slurp(log);
    const std::string warning = "MEGSIM_FRAME_LIMIT='4x'";
    EXPECT_NE(text.find(warning), std::string::npos) << text;
    EXPECT_NE(text.find(slurp(unsetLog)), std::string::npos)
        << text << "\nunset:\n" << slurp(unsetLog);
}

TEST(MegsimCli, ResumeExitsOneWhenAFrameBlowsItsBudget)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path log = dir / "budget.log";
    const std::filesystem::path cache = dir / "budget-cache";

    // A user-set budget that a frame blows is a runtime failure
    // (exit 1), not an internal invariant violation (SIGABRT).
    ::setenv("MEGSIM_FRAME_LIMIT", "2", 1);
    ::setenv("MEGSIM_FRAME_CYCLE_BUDGET", "1", 1);
    const int rc =
        runCli("resume --bench hcr --cache-dir " + cache.string(), log);
    ::unsetenv("MEGSIM_FRAME_LIMIT");
    ::unsetenv("MEGSIM_FRAME_CYCLE_BUDGET");
    ASSERT_TRUE(WIFEXITED(rc)) << slurp(log);
    EXPECT_EQ(WEXITSTATUS(rc), 1) << slurp(log);
    EXPECT_NE(slurp(log).find("cycle budget"), std::string::npos)
        << slurp(log);
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
