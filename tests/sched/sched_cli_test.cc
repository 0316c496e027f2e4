/**
 * @file
 * CLI surface of the scheduler subsystem: serve/submit option
 * validation, queue-full backpressure (submit exit code 9), and the
 * clean "service shutting down" refusal while a draining service
 * finishes its admitted requests. The harness passes the built
 * megsim-cli path as argv[1] (see tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

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
        "megsim_sched_cli_test";
    std::filesystem::create_directories(dir);
    return dir;
}

/** Run the CLI under a bounded frame limit; returns the exit code. */
int
runCli(const std::string &env, const std::string &args,
       const std::filesystem::path &log)
{
    const std::string cmd = "MEGSIM_FRAME_LIMIT=6 " + env + " " +
                            cliPath + " " + args + " > " +
                            log.string() + " 2>&1";
    const int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Cold per-test cache (a warm cache would skip all shard work). */
std::string
cacheEnv(const std::string &name)
{
    const std::filesystem::path dir = tempDir() / name;
    std::filesystem::remove_all(dir);
    return "MEGSIM_CACHE_DIR=" + dir.string();
}

void
waitForSocket(const std::filesystem::path &socket)
{
    for (int i = 0; i < 100 && !std::filesystem::exists(socket); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

void
waitForSocketGone(const std::filesystem::path &socket)
{
    for (int i = 0; i < 200 && std::filesystem::exists(socket); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

} // namespace

TEST(SchedCli, BogusPolicyIsAUsageErrorBeforeBinding)
{
    ASSERT_FALSE(cliPath.empty()) << "pass megsim-cli path as argv[1]";
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path socket = dir / "nopolicy.sock";
    const std::filesystem::path log = dir / "policy.log";
    std::filesystem::remove(socket);

    // There is one scheduling discipline, so --policy is no option.
    EXPECT_EQ(runCli("", "serve --socket " + socket.string() +
                             " --policy fair",
                     log),
              2)
        << slurp(log);
    EXPECT_NE(slurp(log).find("unknown option '--policy'"),
              std::string::npos)
        << slurp(log);
    // The usage error fired before the socket was ever bound.
    EXPECT_FALSE(std::filesystem::exists(socket));

    // --weight must be positive; --max-inflight must be >= 1.
    EXPECT_EQ(runCli("", "submit --socket x --weight 0", log), 2);
    EXPECT_EQ(runCli("", "serve --socket x --max-inflight 0", log),
              2);
}

TEST(SchedCli, SubmitWorkersIsAUsageErrorNamingTheServerOption)
{
    ASSERT_FALSE(cliPath.empty()) << "pass megsim-cli path as argv[1]";
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path socket = dir / "absent.sock";
    const std::filesystem::path log = dir / "submit_workers.log";
    std::filesystem::remove(socket);

    // The fleet belongs to the server, so submit refuses --workers
    // before it ever connects (there is no server on this socket).
    EXPECT_EQ(runCli("", "submit --socket " + socket.string() +
                             " --workers 4",
                     log),
              2)
        << slurp(log);
    EXPECT_NE(slurp(log).find("--workers"), std::string::npos)
        << slurp(log);
    EXPECT_NE(slurp(log).find("serve --workers"), std::string::npos)
        << slurp(log);
}

TEST(SchedCli, QueueFullSubmitExitsWithNine)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path socket = dir / "full.sock";
    const std::filesystem::path serveLog = dir / "full_serve.log";
    std::filesystem::remove(socket);

    // One-slot queue; shard think time keeps the first request in
    // flight while the second one knocks.
    const std::string serveCmd =
        "MEGSIM_FRAME_LIMIT=6 MEGSIM_SHARD_THINK_MS=1500 " +
        cacheEnv("full_cache") + " " + cliPath + " serve --socket " +
        socket.string() +
        " --max-requests 2 --max-inflight 1 --workers 1 > " +
        serveLog.string() + " 2>&1 &";
    ASSERT_EQ(std::system(serveCmd.c_str()), 0);
    waitForSocket(socket);
    ASSERT_TRUE(std::filesystem::exists(socket)) << slurp(serveLog);

    const std::filesystem::path slowLog = dir / "full_slow.log";
    int slowRc = -1;
    std::thread slow([&] {
        slowRc = runCli("", "submit --socket " + socket.string() +
                                " --benches hcr",
                        slowLog);
    });
    // Let the first request get admitted, then hit the full queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const std::filesystem::path rejectedLog = dir / "full_rej.log";
    const int rejectedRc =
        runCli("", "submit --socket " + socket.string() +
                       " --benches jjo --tenant late",
               rejectedLog);
    slow.join();

    EXPECT_EQ(rejectedRc, 9) << slurp(rejectedLog) << slurp(serveLog);
    EXPECT_NE(slurp(rejectedLog).find("rejected"), std::string::npos);
    EXPECT_NE(slurp(rejectedLog).find("queue full"),
              std::string::npos);
    EXPECT_EQ(slowRc, 0) << slurp(slowLog);

    // A rejection does not consume the admission budget: the second
    // accepted request completes and the service exits cleanly.
    const std::filesystem::path secondLog = dir / "full_second.log";
    EXPECT_EQ(runCli("", "submit --socket " + socket.string() +
                             " --benches hcr",
                     secondLog),
              0)
        << slurp(secondLog) << slurp(serveLog);
    waitForSocketGone(socket);
    EXPECT_FALSE(std::filesystem::exists(socket)) << slurp(serveLog);
    EXPECT_NE(slurp(serveLog).find("request 2 done"),
              std::string::npos);
}

TEST(SchedCli, DrainingServiceRefusesCleanlyInsteadOfHanging)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path socket = dir / "drain.sock";
    const std::filesystem::path serveLog = dir / "drain_serve.log";
    std::filesystem::remove(socket);

    const std::string serveCmd =
        "MEGSIM_FRAME_LIMIT=6 MEGSIM_SHARD_THINK_MS=1500 " +
        cacheEnv("drain_cache") + " " + cliPath + " serve --socket " +
        socket.string() +
        " --max-requests 1 --workers 1 > " +
        serveLog.string() + " 2>&1 &";
    ASSERT_EQ(std::system(serveCmd.c_str()), 0);
    waitForSocket(socket);
    ASSERT_TRUE(std::filesystem::exists(socket)) << slurp(serveLog);

    const std::filesystem::path slowLog = dir / "drain_slow.log";
    int slowRc = -1;
    std::thread slow([&] {
        slowRc = runCli("", "submit --socket " + socket.string() +
                                " --benches hcr",
                        slowLog);
    });
    // The admission budget is now spent; a late request must get a
    // prompt, clean refusal — not a hung socket.
    std::this_thread::sleep_for(std::chrono::milliseconds(500));
    const std::filesystem::path lateLog = dir / "drain_late.log";
    const auto before = std::chrono::steady_clock::now();
    const int lateRc = runCli("", "submit --socket " +
                                      socket.string() +
                                      " --benches jjo",
                              lateLog);
    const auto waited = std::chrono::steady_clock::now() - before;
    slow.join();

    EXPECT_EQ(lateRc, 1) << slurp(lateLog) << slurp(serveLog);
    EXPECT_NE(slurp(lateLog).find("service shutting down"),
              std::string::npos)
        << slurp(lateLog);
    // "Prompt" means well inside the slow request's service time.
    EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(
                  waited)
                  .count(),
              1500);
    EXPECT_EQ(slowRc, 0) << slurp(slowLog);

    waitForSocketGone(socket);
    EXPECT_FALSE(std::filesystem::exists(socket)) << slurp(serveLog);
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
