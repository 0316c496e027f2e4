/**
 * @file
 * End-to-end tests for the supervised campaign CLI surface:
 * `campaign --workers N`, the degraded exit code 8, the
 * `serve --socket` / `submit` request queue, including its refusal of
 * frames that are not campaign requests, and what `submit --ledger`
 * writes. The harness passes the built
 * megsim-cli path as argv[1] (see tests/CMakeLists.txt).
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "batch/report.hh"
#include "scratch_dir.hh"
#include "serve/protocol.hh"
#include "serve/service.hh"

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
        "megsim_serve_cli_test";
    std::filesystem::create_directories(dir);
    return dir;
}

/**
 * Run the CLI with @p env prepended (fault spec, cache dir) under a
 * bounded frame limit; returns the exit code.
 */
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

/**
 * A cold per-test cache directory. Wiped on every call: a cache left
 * over from a previous run would make the supervisor see every
 * benchmark as fresh, skip shard work entirely, and never trip the
 * injected worker faults these tests depend on.
 */
std::string
cacheEnv(const std::string &name)
{
    const std::filesystem::path dir = tempDir() / name;
    std::filesystem::remove_all(dir);
    return "MEGSIM_CACHE_DIR=" + dir.string();
}

} // namespace

TEST(ServeCli, SupervisedCampaignSurvivesKillsAndDiffsClean)
{
    ASSERT_FALSE(cliPath.empty()) << "pass megsim-cli path as argv[1]";
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path supervised = dir / "supervised.json";
    const std::filesystem::path inprocess = dir / "inprocess.json";
    const std::filesystem::path ledger = dir / "supervised.run.jsonl";
    const std::filesystem::path log = dir / "supervised.log";

    // Two worker crashes injected; the supervisor must recover and
    // still exit 0 with the same numbers as the in-process run.
    ASSERT_EQ(runCli(cacheEnv("sup_cache") +
                         " MEGSIM_SHARD_FRAMES=4"
                         " MEGSIM_FAULTS='worker.kill:shard=1,times=1"
                         ";worker.kill:shard=2,times=1'",
                     "campaign --benches hcr,jjo --workers 2 --out " +
                         supervised.string() + " --ledger " +
                         ledger.string(),
                     log),
              0)
        << slurp(log);
    ASSERT_EQ(runCli(cacheEnv("inproc_cache"),
                     "campaign --benches hcr,jjo --out " +
                         inprocess.string(),
                     log),
              0)
        << slurp(log);
    EXPECT_EQ(runCli("", "campaign --diff " + supervised.string() +
                             " " + inprocess.string(),
                     log),
              0)
        << slurp(log);

    // The ledger validates strictly and tells the supervision story.
    EXPECT_EQ(runCli("", "ledger --validate " + ledger.string(), log),
              0)
        << slurp(log);
    const std::string text = slurp(ledger);
    EXPECT_NE(text.find("\"event\":\"worker_spawn\""),
              std::string::npos);
    EXPECT_NE(text.find("\"event\":\"worker_exit\""),
              std::string::npos);
    EXPECT_NE(text.find("\"event\":\"shard_retry\""),
              std::string::npos);
    EXPECT_NE(text.find("\"workers\":2"), std::string::npos);
}

TEST(ServeCli, PoisonShardDegradesTheCampaignWithExitEight)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path report = dir / "degraded.json";
    const std::filesystem::path log = dir / "degraded.log";

    const int rc = runCli(
        cacheEnv("poison_cache") +
            " MEGSIM_SHARD_FRAMES=6 MEGSIM_SHARD_RETRIES=1"
            " MEGSIM_FAULTS=worker.kill:shard=0",
        "campaign --benches hcr,jjo --workers 2 --out " +
            report.string(),
        log);
    EXPECT_EQ(rc, 8) << slurp(log);
    EXPECT_NE(slurp(log).find("quarantined"), std::string::npos);

    const std::string text = slurp(report);
    EXPECT_NE(text.find("\"degraded\": true"), std::string::npos);
    EXPECT_NE(text.find("\"quarantined_shards\""), std::string::npos);
    EXPECT_NE(text.find("\"bench\": \"hcr\""), std::string::npos);
    // The healthy benchmark still has its row.
    EXPECT_NE(text.find("\"alias\": \"jjo\""), std::string::npos);
}

TEST(ServeCli, ServeAnswersQueuedSubmitsOverOneSharedCache)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path socket = dir / "serve.sock";
    const std::filesystem::path serveLog = dir / "serve.log";
    const std::filesystem::path log = dir / "submit.log";
    std::filesystem::remove(socket);

    // Background server: supervised workers, exits after 2 requests.
    const std::string serveCmd =
        "MEGSIM_FRAME_LIMIT=6 " + cacheEnv("serve_cache") + " " +
        cliPath + " serve --socket " + socket.string() +
        " --max-requests 2 --workers 2 > " + serveLog.string() +
        " 2>&1 &";
    ASSERT_EQ(std::system(serveCmd.c_str()), 0);
    for (int i = 0; i < 100 && !std::filesystem::exists(socket); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(std::filesystem::exists(socket)) << slurp(serveLog);

    const std::filesystem::path first = dir / "first.json";
    const std::filesystem::path firstLedger =
        dir / "first.run.jsonl";
    EXPECT_EQ(runCli("", "submit --socket " + socket.string() +
                             " --benches hcr --out " + first.string() +
                             " --ledger " + firstLedger.string(),
                     log),
              0)
        << slurp(log) << slurp(serveLog);
    EXPECT_NE(slurp(first).find("\"alias\": \"hcr\""),
              std::string::npos);
    EXPECT_EQ(runCli("",
                     "ledger --validate " + firstLedger.string(), log),
              0)
        << slurp(log);

    // Second request shares the cache: hcr is now a verified hit.
    EXPECT_EQ(runCli("", "submit --socket " + socket.string() +
                             " --benches hcr,jjo",
                     log),
              0)
        << slurp(log) << slurp(serveLog);
    EXPECT_NE(slurp(log).find("fresh"), std::string::npos)
        << slurp(log);

    // The server saw both requests and tore the socket down.
    for (int i = 0; i < 100 && std::filesystem::exists(socket); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(std::filesystem::exists(socket)) << slurp(serveLog);
    const std::string served = slurp(serveLog);
    EXPECT_NE(served.find("request 2 done"), std::string::npos);
    // Workers leaving on the shutdown signal is no fault to warn of.
    EXPECT_EQ(served.find("warn: serve: worker"), std::string::npos)
        << served;
}

TEST(ServeCli, ServeRefusesFramesThatAreNotCampaignRequests)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path socket = dir / "refuse.sock";
    const std::filesystem::path serveLog = dir / "refuse_serve.log";
    const std::filesystem::path log = dir / "refuse_submit.log";
    const std::filesystem::path victim = dir / "victim.txt";
    std::filesystem::remove(socket);
    {
        std::ofstream out(victim);
        out << "keep me\n";
    }

    const std::string serveCmd =
        "MEGSIM_FRAME_LIMIT=6 " + cacheEnv("refuse_cache") + " " +
        cliPath + " serve --socket " + socket.string() +
        " --max-requests 1 --workers 1 > " + serveLog.string() +
        " 2>&1 &";
    ASSERT_EQ(std::system(serveCmd.c_str()), 0);
    for (int i = 0; i < 100 && !std::filesystem::exists(socket); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(std::filesystem::exists(socket)) << slurp(serveLog);

    // Any client can send any frame. One naming a file (the shape of
    // the retired reply-spill reference) must not touch that file and
    // must not run as a campaign.
    msim::util::Json frame = msim::util::Json::object();
    frame.set("type", "spill_ref");
    frame.set("path", victim.string());
    frame.set("bytes", static_cast<std::size_t>(8));
    frame.set("checksum", "0");
    auto reply = msim::serve::submit(socket.string(), frame);
    ASSERT_TRUE(reply.ok()) << reply.error().message;
    const msim::util::Json *status = reply->find("status");
    ASSERT_NE(status, nullptr) << reply->dump();
    EXPECT_EQ(status->asString(), "error") << reply->dump();
    const msim::util::Json *message = reply->find("message");
    ASSERT_NE(message, nullptr) << reply->dump();
    EXPECT_NE(message->asString().find("spill_ref"), std::string::npos)
        << reply->dump();
    EXPECT_EQ(slurp(victim), "keep me\n");

    // The refusal admitted nothing: the one request the service takes
    // is still a real campaign, after which it exits.
    EXPECT_EQ(runCli("", "submit --socket " + socket.string() +
                             " --benches hcr",
                     log),
              0)
        << slurp(log) << slurp(serveLog);
    for (int i = 0; i < 100 && std::filesystem::exists(socket); ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_FALSE(std::filesystem::exists(socket)) << slurp(serveLog);
    EXPECT_NE(slurp(serveLog).find("request 1 done (ok)"),
              std::string::npos)
        << slurp(serveLog);
    EXPECT_EQ(slurp(victim), "keep me\n");
}

TEST(ServeCli, SubmitWritesTheRepliedLedgerOrWarns)
{
    ASSERT_FALSE(cliPath.empty());
    const std::filesystem::path dir = tempDir();
    const std::filesystem::path socket = dir / "scripted.sock";
    const std::filesystem::path log = dir / "scripted.log";
    std::filesystem::remove(socket);

    // A scripted server: each client gets the next reply, a finished
    // campaign (an empty report) with or without a ledger.
    const std::string ledgerText =
        "{\"schema\":\"megsim-run-v1\",\"seq\":0}\n\"quoted\"\ttab\n";
    std::vector<msim::util::Json> replies;
    for (const bool withLedger : {true, false, true}) {
        msim::util::Json reply = msim::util::Json::object();
        reply.set("type", "campaign_result");
        reply.set("status", "ok");
        reply.set("report", msim::batch::CampaignReport().toJson());
        if (withLedger)
            reply.set("ledger", ledgerText);
        replies.push_back(std::move(reply));
    }
    const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listener, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    ASSERT_LT(socket.string().size(), sizeof(addr.sun_path));
    std::strcpy(addr.sun_path, socket.c_str());
    ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr *>(&addr),
                     sizeof(addr)),
              0);
    ASSERT_EQ(::listen(listener, 4), 0);
    std::thread server([&] {
        for (const msim::util::Json &reply : replies) {
            // A client that never comes fails the test, not hangs it.
            pollfd ready{listener, POLLIN, 0};
            if (::poll(&ready, 1, 10000) != 1)
                return;
            const int client = ::accept(listener, nullptr, nullptr);
            if (client < 0)
                return;
            (void)msim::serve::readMessage(client, 5000.0);
            (void)msim::serve::writeMessage(client, reply);
            ::close(client);
        }
    });

    // The ledger on disk is the reply's text, byte for byte.
    const std::filesystem::path written = dir / "scripted.run.jsonl";
    std::filesystem::remove(written);
    EXPECT_EQ(runCli("", "submit --socket " + socket.string() +
                             " --ledger " + written.string(),
                     log),
              0)
        << slurp(log);
    EXPECT_EQ(slurp(written), ledgerText);
    EXPECT_NE(slurp(log).find("ledger: " + written.string()),
              std::string::npos)
        << slurp(log);

    // A reply without a ledger warns, naming the path, and writes
    // nothing; the exit code stays.
    const std::filesystem::path absent = dir / "absent.run.jsonl";
    std::filesystem::remove(absent);
    EXPECT_EQ(runCli("", "submit --socket " + socket.string() +
                             " --ledger " + absent.string(),
                     log),
              0)
        << slurp(log);
    EXPECT_NE(slurp(log).find("reply carries no ledger; '" +
                              absent.string() + "' not written"),
              std::string::npos)
        << slurp(log);
    EXPECT_FALSE(std::filesystem::exists(absent));

    // So does a ledger that cannot be written.
    const std::string unwritable = "/nonexistent/dir/l.run.jsonl";
    EXPECT_EQ(runCli("", "submit --socket " + socket.string() +
                             " --ledger " + unwritable,
                     log),
              0)
        << slurp(log);
    EXPECT_NE(slurp(log).find("cannot write ledger '" + unwritable + "'"),
              std::string::npos)
        << slurp(log);

    server.join();
    ::close(listener);
    std::filesystem::remove(socket);
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
