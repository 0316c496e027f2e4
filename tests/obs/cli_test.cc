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
