#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <bit>
#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/megsim.hh"
#include "gpusim/scene_binding.hh"
#include "gpusim/timing_simulator.hh"
#include "obs/stats.hh"
#include "resilience/artifact.hh"
#include "resilience/checkpoint.hh"
#include "resilience/checksum.hh"
#include "resilience/expected.hh"
#include "resilience/fault.hh"
#include "scratch_dir.hh"
#include "util/csv.hh"
#include "workloads/workloads.hh"

using namespace msim;
using namespace msim::resilience;

namespace
{

/** Fresh per-test scratch directory; faults disarmed on both ends. */
class ResilienceTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        FaultInjector::setGlobalSpec("");
        dir_ = msim::test::scratchDir() /
               ("megsim_resilience_" +
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

util::CsvTable
sampleTable()
{
    util::CsvTable table;
    table.header = {"a", "b", "c"};
    table.rows = {{1.0, 2.0, 3.0}, {4.5, -6.0, 7.25}, {8.0, 9.0, 10.0}};
    return table;
}

std::string
slurp(const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    return text;
}

void
spit(const std::string &p, const std::string &text)
{
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out << text;
}

} // namespace

TEST(Expected, HoldsValueOrError)
{
    Expected<int> good(7);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(*good, 7);

    Expected<int> bad(errorf(Errc::Truncated, "only %d rows", 3));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, Errc::Truncated);
    EXPECT_EQ(bad.error().message, "only 3 rows");

    Expected<void> fine;
    EXPECT_TRUE(fine.ok());
    Expected<void> broken(Error{Errc::Io, "disk on fire"});
    ASSERT_FALSE(broken.ok());
    EXPECT_EQ(broken.error().code, Errc::Io);
    EXPECT_STREQ(errcName(Errc::BadChecksum), "bad-checksum");
}

TEST(ChecksumTest, Fnv1aMatchesReferenceAndSeesEveryByte)
{
    // Published FNV-1a 64 reference vectors.
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);

    EXPECT_NE(fnv1a("megsim"), fnv1a("megsiM"));

    Checksum streaming;
    streaming.update("meg");
    streaming.update("sim");
    EXPECT_EQ(streaming.digest(), fnv1a("megsim"));
}

TEST(FaultSpec, ParsesClausesAndRejectsGarbage)
{
    auto multi = FaultInjector::parse(
        "io.read:p=0.5,seed=7; frame.hang:frame=42 ;cache.corrupt");
    ASSERT_TRUE(multi.ok());
    EXPECT_EQ(multi->clauseCount(), 3u);

    EXPECT_TRUE(FaultInjector::parse("").ok());
    EXPECT_FALSE(FaultInjector::parse("disk.melt").ok());
    EXPECT_FALSE(FaultInjector::parse("io.read:banana").ok());
    EXPECT_FALSE(FaultInjector::parse("io.read:volume=11").ok());
}

TEST_F(ResilienceTest, FaultMatchingRespectsKindAndProbability)
{
    FaultInjector::setGlobalSpec("cache.corrupt:kind=stats");
    EXPECT_TRUE(FaultInjector::global().corruptCache("stats"));
    EXPECT_FALSE(FaultInjector::global().corruptCache("activity"));

    // p=0 never fires, p=1 always does.
    FaultInjector::setGlobalSpec("io.read:p=0");
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(FaultInjector::global().failRead("x.csv"));
    FaultInjector::setGlobalSpec("io.read");
    EXPECT_TRUE(FaultInjector::global().failRead("x.csv"));

    // A bad spec must arm nothing rather than half-arm.
    FaultInjector::setGlobalSpec("io.read; disk.melt");
    EXPECT_FALSE(FaultInjector::global().enabled());

    FaultInjector::setGlobalSpec("frame.hang:frame=3");
    EXPECT_FALSE(FaultInjector::global().hangFrame(2));
    EXPECT_TRUE(FaultInjector::global().hangFrame(3));
}

TEST_F(ResilienceTest, ArtifactRoundTrips)
{
    const util::CsvTable table = sampleTable();
    ASSERT_TRUE(
        writeCsvArtifact(path("a.csv"), table, 0xfeedULL, "stats").ok());

    auto loaded = readCsvArtifact(path("a.csv"), 0xfeedULL, "stats");
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded->header, table.header);
    EXPECT_EQ(loaded->rows, table.rows);

    // No temp file left behind by the atomic write.
    EXPECT_FALSE(std::filesystem::exists(path("a.csv") + ".tmp"));
}

TEST_F(ResilienceTest, ArtifactDetectsMissingStaleAndCorrupt)
{
    const util::CsvTable table = sampleTable();
    ASSERT_TRUE(
        writeCsvArtifact(path("a.csv"), table, 0xfeedULL, "stats").ok());
    const std::string pristine = slurp(path("a.csv"));

    auto missing = readCsvArtifact(path("nope.csv"), 0xfeedULL, "stats");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, Errc::NotFound);

    auto stale = readCsvArtifact(path("a.csv"), 0xbeefULL, "stats");
    ASSERT_FALSE(stale.ok());
    EXPECT_EQ(stale.error().code, Errc::BadFingerprint);

    // Truncation: drop the last full row.
    std::string cut = pristine;
    cut.erase(cut.find_last_of('\n', cut.size() - 2) + 1);
    spit(path("a.csv"), cut);
    auto truncated = readCsvArtifact(path("a.csv"), 0xfeedULL, "stats");
    ASSERT_FALSE(truncated.ok());
    EXPECT_EQ(truncated.error().code, Errc::Truncated);

    // Bit rot: flip one payload digit (CSV still parses).
    std::string flipped = pristine;
    const std::size_t digit = flipped.find("4.5");
    ASSERT_NE(digit, std::string::npos);
    flipped[digit] = '9';
    spit(path("a.csv"), flipped);
    auto rotten = readCsvArtifact(path("a.csv"), 0xfeedULL, "stats");
    ASSERT_FALSE(rotten.ok());
    EXPECT_EQ(rotten.error().code, Errc::BadChecksum);

    // Injected corruption via the fault layer.
    spit(path("a.csv"), pristine);
    FaultInjector::setGlobalSpec("cache.corrupt:kind=stats");
    auto injected = readCsvArtifact(path("a.csv"), 0xfeedULL, "stats");
    ASSERT_FALSE(injected.ok());
    EXPECT_EQ(injected.error().code, Errc::Injected);
}

TEST_F(ResilienceTest, AtomicWriteSurvivesInjectedWriteFailure)
{
    const util::CsvTable table = sampleTable();
    ASSERT_TRUE(
        writeCsvArtifact(path("a.csv"), table, 1ULL, "stats").ok());
    const std::string pristine = slurp(path("a.csv"));

    FaultInjector::setGlobalSpec("io.write");
    EXPECT_FALSE(
        writeCsvArtifact(path("a.csv"), sampleTable(), 2ULL, "stats")
            .ok());
    // The failed write must not have clobbered the existing artifact.
    EXPECT_EQ(slurp(path("a.csv")), pristine);
}

TEST_F(ResilienceTest, CheckpointRoundTripsAndIgnoresTornTail)
{
    const std::vector<std::vector<double>> stats = {
        {0, 10.5}, {1, 11.5}, {2, 12.5}};
    const std::vector<std::vector<double>> acts = {
        {0, 1}, {1, 2}, {2, 3}};

    {
        Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2);
        EXPECT_EQ(ckpt.resume(), 0u);
        for (std::size_t f = 0; f < 3; ++f)
            ckpt.append(stats[f], acts[f]);
        EXPECT_EQ(ckpt.frames(), 3u);
    }

    // A kill mid-append leaves at worst a torn journal line.
    {
        std::ofstream torn(path("bench") + ".ckpt.stats.jnl",
                           std::ios::app);
        torn << "3,13.5"; // no checksum, no newline
    }

    Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2);
    EXPECT_EQ(ckpt.resume(), 3u);
    EXPECT_EQ(ckpt.statsRows(), stats);
    EXPECT_EQ(ckpt.activityRows(), acts);

    // Appending after resume continues the sequence.
    ckpt.append({3, 13.5}, {3, 4});
    EXPECT_EQ(ckpt.frames(), 4u);

    ckpt.discard();
    EXPECT_FALSE(
        std::filesystem::exists(path("bench") + ".ckpt.manifest"));
    EXPECT_FALSE(
        std::filesystem::exists(path("bench") + ".ckpt.stats.jnl"));
}

TEST_F(ResilienceTest, CheckpointRejectsForeignManifest)
{
    {
        Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2);
        ckpt.resume();
        ckpt.append({0, 1}, {0, 1});
    }
    // Same stem, different scene/config fingerprint: start over.
    Checkpoint other(path("bench"), 0xdefULL, 5, 2, 2);
    EXPECT_EQ(other.resume(), 0u);
}

TEST_F(ResilienceTest, CheckpointAppendsNeverTouchTheManifest)
{
    {
        Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2);
        EXPECT_EQ(ckpt.resume(), 0u);
        // resume() wrote the manifest; appends must not write it
        // again, so a manifest that can no longer be written costs
        // the run nothing.
        FaultInjector::setGlobalSpec("io.write:path=.ckpt.manifest");
        for (double f = 0; f < 3; ++f) {
            ckpt.append({f, 10.5 + f}, {f, 1 + f});
            EXPECT_TRUE(ckpt.writable()) << "frame " << f;
        }
        EXPECT_EQ(ckpt.frames(), 3u);
    }
    FaultInjector::setGlobalSpec("");
    Checkpoint fresh(path("bench"), 0xabcULL, 5, 2, 2);
    EXPECT_EQ(fresh.resume(), 3u);
}

TEST_F(ResilienceTest, CheckpointResumesTheShorterJournalPrefix)
{
    {
        Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2);
        EXPECT_EQ(ckpt.resume(), 0u);
        for (double f = 0; f < 3; ++f)
            ckpt.append({f, 10.5 + f}, {f, 1 + f});
    }
    // A kill between the two journal writes: the stats journal holds
    // one more whole, checksummed line than the activity journal.
    {
        const std::string payload = "3,13.5";
        char tail[24];
        std::snprintf(tail, sizeof(tail), "#%016" PRIx64,
                      fnv1a(payload));
        std::ofstream extra(path("bench") + ".ckpt.stats.jnl",
                            std::ios::app);
        extra << payload << tail << '\n';
    }
    const std::vector<std::vector<double>> stats = {
        {0, 10.5}, {1, 11.5}, {2, 12.5}};
    const std::vector<std::vector<double>> acts = {
        {0, 1}, {1, 2}, {2, 3}};
    {
        Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2);
        EXPECT_EQ(ckpt.resume(), 3u);
        EXPECT_EQ(ckpt.statsRows(), stats);
        EXPECT_EQ(ckpt.activityRows(), acts);
        // The extra line is gone from disk, so the next append lines
        // up in both journals.
        ckpt.append({3, 99.0}, {3, 4});
    }
    Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2);
    EXPECT_EQ(ckpt.resume(), 4u);
    EXPECT_EQ(ckpt.statsRows().back(), (std::vector<double>{3, 99.0}));
    EXPECT_EQ(ckpt.activityRows().back(), (std::vector<double>{3, 4}));
}

TEST_F(ResilienceTest, CheckpointRefusesAVersion1Manifest)
{
    {
        Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2);
        EXPECT_EQ(ckpt.resume(), 0u);
        for (double f = 0; f < 3; ++f)
            ckpt.append({f, 10.5 + f}, {f, 1 + f});
    }
    // The old format, rewritten after every frame, with the same key.
    spit(path("bench") + ".ckpt.manifest",
         "megsim-checkpoint v1\n"
         "fingerprint 0000000000000abc\n"
         "total 5 stats_cols 2 activity_cols 2\n"
         "frames 3\n");
    Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2);
    EXPECT_EQ(ckpt.resume(), 0u);
    EXPECT_TRUE(ckpt.statsRows().empty());
    EXPECT_EQ(slurp(path("bench") + ".ckpt.stats.jnl"), "");
}

TEST_F(ResilienceTest, CheckpointRowsRoundTripBitForBit)
{
    const std::vector<double> awkward = {
        0.1,
        1.0 / 3.0,
        1e-300,
        std::numeric_limits<double>::denorm_min() * 3,
        9007199254740994.0, // 2^53 + 2
        -0.0,
        1e308,
    };
    std::vector<double> reversed(awkward.rbegin(), awkward.rend());
    ASSERT_LT(std::fabs(awkward[3]),
              std::numeric_limits<double>::min());
    {
        Checkpoint ckpt(path("bench"), 0xabcULL, 1, awkward.size(),
                        reversed.size());
        EXPECT_EQ(ckpt.resume(), 0u);
        ckpt.append(awkward, reversed);
    }
    Checkpoint ckpt(path("bench"), 0xabcULL, 1, awkward.size(),
                    reversed.size());
    ASSERT_EQ(ckpt.resume(), 1u);
    const std::vector<double> &stats = ckpt.statsRows()[0];
    const std::vector<double> &acts = ckpt.activityRows()[0];
    ASSERT_EQ(stats.size(), awkward.size());
    ASSERT_EQ(acts.size(), reversed.size());
    for (std::size_t c = 0; c < awkward.size(); ++c) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(stats[c]),
                  std::bit_cast<std::uint64_t>(awkward[c]))
            << "stats cell " << c << ": " << stats[c];
        EXPECT_EQ(std::bit_cast<std::uint64_t>(acts[c]),
                  std::bit_cast<std::uint64_t>(reversed[c]))
            << "activity cell " << c << ": " << acts[c];
    }
}

TEST_F(ResilienceTest, GroundTruthSurvivesSigkillAndResumesIdentically)
{
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 5);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    // Uninterrupted reference, no caching involved.
    megsim::BenchmarkData reference(scene, config, "");
    const std::vector<gpusim::FrameStats> expected =
        reference.frameStats();
    ASSERT_EQ(expected.size(), 5u);

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        // In the child: die by injected SIGKILL right after frame 2
        // is checkpointed. Reaching _exit means the fault never fired.
        FaultInjector::setGlobalSpec("run.kill:frame=2");
        megsim::BenchmarkData doomed(scene, config, dir_.string());
        doomed.frameStats();
        _exit(42);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    const double resumedBefore =
        obs::processRegistry()
            .scalar("resilience.checkpoint.frames_resumed", "")
            .value();

    megsim::BenchmarkData survivor(scene, config, dir_.string());
    const std::vector<gpusim::FrameStats> resumed =
        survivor.frameStats();
    ASSERT_EQ(resumed.size(), expected.size());
    for (std::size_t f = 0; f < expected.size(); ++f)
        EXPECT_EQ(resumed[f].toCsvRow(), expected[f].toCsvRow())
            << "frame " << f;

    // Frames 0..2 came from the checkpoint, not recomputation.
    EXPECT_EQ(obs::processRegistry()
                  .scalar("resilience.checkpoint.frames_resumed", "")
                  .value(),
              resumedBefore + 3.0);

    // The finished pass cleans its checkpoint up and leaves caches.
    const std::string statsPath = survivor.cachePath("stats");
    const std::string stem =
        statsPath.substr(0, statsPath.rfind("_stats"));
    EXPECT_FALSE(std::filesystem::exists(stem + ".ckpt.manifest"));
    EXPECT_TRUE(std::filesystem::exists(statsPath));
}

TEST_F(ResilienceTest, KillBetweenCacheStoresKeepsJournalForResume)
{
    // The exact window the discard-ordering fix covers: the stats
    // cache has landed, the activity cache has not, and the journal
    // must still hold every committed frame.
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 5);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    megsim::BenchmarkData reference(scene, config, "");
    const std::vector<gpusim::FrameStats> expected =
        reference.frameStats();

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        FaultInjector::setGlobalSpec("run.kill:site=cache.store");
        megsim::BenchmarkData doomed(scene, config, dir_.string());
        doomed.frameStats();
        _exit(42);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    megsim::BenchmarkData survivor(scene, config, dir_.string());
    const std::string statsPath = survivor.cachePath("stats");
    const std::string stem =
        statsPath.substr(0, statsPath.rfind("_stats"));

    // Stats cache stored, activity cache missing — and the journal
    // survived the window, still resumable for all 5 frames.
    EXPECT_TRUE(std::filesystem::exists(statsPath));
    EXPECT_FALSE(
        std::filesystem::exists(survivor.cachePath("activity")));
    ASSERT_TRUE(std::filesystem::exists(stem + ".ckpt.manifest"));
    {
        Checkpoint ckpt(stem, survivor.cacheKey(), 5,
                        gpusim::FrameStats::csvHeader().size(),
                        4 + scene.numVertexShaders() +
                            scene.numFragmentShaders());
        EXPECT_EQ(ckpt.resume(), 5u);
    }

    // The next run completes with identical rows.
    const std::vector<gpusim::FrameStats> resumed =
        survivor.frameStats();
    ASSERT_EQ(resumed.size(), expected.size());
    for (std::size_t f = 0; f < expected.size(); ++f)
        EXPECT_EQ(resumed[f].toCsvRow(), expected[f].toCsvRow())
            << "frame " << f;
}

TEST_F(ResilienceTest, KillBeforeJournalDiscardLeavesLoadedCaches)
{
    // One tick later: both stores landed, the discard did not. The
    // caches must verify, and the stale journal must stay harmless.
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 5);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    megsim::BenchmarkData reference(scene, config, "");
    const std::vector<gpusim::FrameStats> expected =
        reference.frameStats();

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        FaultInjector::setGlobalSpec("run.kill:site=ckpt.discard");
        megsim::BenchmarkData doomed(scene, config, dir_.string());
        doomed.frameStats();
        _exit(42);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    megsim::BenchmarkData survivor(scene, config, dir_.string());
    EXPECT_TRUE(readCsvArtifact(survivor.cachePath("stats"),
                                survivor.cacheKey(), "stats")
                    .ok());
    EXPECT_TRUE(readCsvArtifact(survivor.cachePath("activity"),
                                survivor.cacheKey(), "activity")
                    .ok());
    EXPECT_EQ(survivor.probeCaches(), megsim::CacheProbe::Loaded);
    const std::vector<gpusim::FrameStats> loaded =
        survivor.frameStats();
    ASSERT_EQ(loaded.size(), expected.size());
    for (std::size_t f = 0; f < expected.size(); ++f)
        EXPECT_EQ(loaded[f].toCsvRow(), expected[f].toCsvRow())
            << "frame " << f;
}

TEST_F(ResilienceTest, CorruptedCacheIsDetectedAndRegenerated)
{
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 4);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    megsim::BenchmarkData writer(scene, config, dir_.string());
    const std::vector<gpusim::FrameStats> expected =
        writer.frameStats();
    ASSERT_TRUE(std::filesystem::exists(writer.cachePath("stats")));

    // Flip a payload byte in the stats cache.
    std::string text = slurp(writer.cachePath("stats"));
    const std::size_t tail = text.find_last_of("0123456789");
    ASSERT_NE(tail, std::string::npos);
    text[tail] = text[tail] == '7' ? '8' : '7';
    spit(writer.cachePath("stats"), text);

    const double detectedBefore =
        obs::processRegistry()
            .scalar("resilience.cache.corrupt_detected", "")
            .value();

    megsim::BenchmarkData reader(scene, config, dir_.string());
    const std::vector<gpusim::FrameStats> regenerated =
        reader.frameStats();
    ASSERT_EQ(regenerated.size(), expected.size());
    for (std::size_t f = 0; f < expected.size(); ++f)
        EXPECT_EQ(regenerated[f].toCsvRow(), expected[f].toCsvRow());
    EXPECT_GT(obs::processRegistry()
                  .scalar("resilience.cache.corrupt_detected", "")
                  .value(),
              detectedBefore);

    // The regenerated artifact is valid again.
    EXPECT_TRUE(readCsvArtifact(reader.cachePath("stats"),
                                reader.cacheKey(), "stats")
                    .ok());
}

TEST_F(ResilienceTest, InjectedIoFaultsDegradeGracefully)
{
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 3);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    // io.read: a populated cache becomes unreadable; the pass
    // regenerates instead of trusting or crashing.
    megsim::BenchmarkData writer(scene, config, dir_.string());
    writer.frameStats();
    FaultInjector::setGlobalSpec("io.read");
    megsim::BenchmarkData blindReader(scene, config, dir_.string());
    EXPECT_EQ(blindReader.frameStats().size(), 3u);

    // io.write: nothing persists, but the run itself succeeds.
    FaultInjector::setGlobalSpec("io.write");
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    megsim::BenchmarkData mute(scene, config, dir_.string());
    EXPECT_EQ(mute.frameStats().size(), 3u);
    EXPECT_FALSE(std::filesystem::exists(mute.cachePath("stats")));
}

TEST_F(ResilienceTest, WatchdogCycleBudgetTimesOut)
{
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 2);
    const gpusim::SceneBinding binding(scene);
    gpusim::TimingSimulator sim(gpusim::GpuConfig::evaluationScaled(),
                                binding);

    WatchdogConfig tight;
    tight.cycleBudget = 1; // every real frame blows this
    auto timedOut = megsim::simulateGuarded(sim, scene, 0, tight);
    ASSERT_FALSE(timedOut.ok());
    EXPECT_EQ(timedOut.error().code, Errc::FrameTimeout);
    EXPECT_NE(timedOut.error().message.find("cycle budget"),
              std::string::npos)
        << timedOut.error().message;

    const WatchdogConfig roomy; // budgets disabled
    auto frame = megsim::simulateGuarded(sim, scene, 0, roomy);
    ASSERT_TRUE(frame.ok());
    EXPECT_GT(frame->stats.cycles, 1u);

    FaultInjector::setGlobalSpec("frame.hang:frame=0");
    auto hung = megsim::simulateGuarded(sim, scene, 0, roomy);
    ASSERT_FALSE(hung.ok());
    EXPECT_EQ(hung.error().code, Errc::FrameTimeout);
    EXPECT_NE(hung.error().message.find("hung (injected)"),
              std::string::npos)
        << hung.error().message;

    // The budgets parse strictly: anything but a finite, non-negative
    // number with nothing after it warns, naming the variable, and
    // leaves that budget off.
    for (const char *bad : {"-1", "abc", "5k", "inf", "nan", "1e400"}) {
        ::setenv("MEGSIM_FRAME_BUDGET_MS", bad, 1);
        ::setenv("MEGSIM_FRAME_CYCLE_BUDGET", bad, 1);
        ::testing::internal::CaptureStderr();
        const WatchdogConfig parsed = WatchdogConfig::fromEnv();
        const std::string warned =
            ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(parsed.wallBudgetSeconds, 0.0) << bad;
        EXPECT_EQ(parsed.cycleBudget, 0u) << bad;
        EXPECT_NE(warned.find("MEGSIM_FRAME_BUDGET_MS"),
                  std::string::npos)
            << warned;
        EXPECT_NE(warned.find("MEGSIM_FRAME_CYCLE_BUDGET"),
                  std::string::npos)
            << warned;
    }
    ::setenv("MEGSIM_FRAME_BUDGET_MS", "250", 1);
    ::setenv("MEGSIM_FRAME_CYCLE_BUDGET", "7", 1);
    const WatchdogConfig parsed = WatchdogConfig::fromEnv();
    ::unsetenv("MEGSIM_FRAME_BUDGET_MS");
    ::unsetenv("MEGSIM_FRAME_CYCLE_BUDGET");
    EXPECT_DOUBLE_EQ(parsed.wallBudgetSeconds, 0.25);
    EXPECT_EQ(parsed.cycleBudget, 7u);
    const WatchdogConfig unset = WatchdogConfig::fromEnv();
    EXPECT_EQ(unset.wallBudgetSeconds, 0.0);
    EXPECT_EQ(unset.cycleBudget, 0u);
}

TEST_F(ResilienceTest, MalformedBudgetWarnsOncePerValue)
{
    // Every pass, served worker and scheduler reads the budgets; one
    // bad value is reported once per process, a new bad value again.
    const auto warnings = [](const char *value) {
        ::setenv("MEGSIM_FRAME_BUDGET_MS", value, 1);
        ::testing::internal::CaptureStderr();
        for (int read = 0; read < 2; ++read)
            EXPECT_EQ(WatchdogConfig::fromEnv().wallBudgetSeconds, 0.0);
        const std::string warned =
            ::testing::internal::GetCapturedStderr();
        ::unsetenv("MEGSIM_FRAME_BUDGET_MS");
        std::size_t count = 0;
        for (std::size_t at = warned.find("MEGSIM_FRAME_BUDGET_MS");
             at != std::string::npos;
             at = warned.find("MEGSIM_FRAME_BUDGET_MS", at + 1))
            ++count;
        return count;
    };
    EXPECT_EQ(warnings("12ms"), 1u);
    EXPECT_EQ(warnings("12ms"), 0u);
    EXPECT_EQ(warnings("13ms"), 1u);
}

TEST_F(ResilienceTest, GroundTruthPassEnforcesTheFrameWatchdog)
{
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 2);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    // An injected hang fails only the frame it names.
    FaultInjector::setGlobalSpec("frame.hang:frame=1");
    {
        megsim::BenchmarkData data(scene, config, "");
        megsim::GroundTruthPass pass(data, 1);
        ASSERT_EQ(pass.remaining(), 2u);
        auto hung = pass.produce(1, 0);
        ASSERT_FALSE(hung.ok());
        EXPECT_EQ(hung.error().code, Errc::FrameTimeout);
        EXPECT_TRUE(pass.produce(0, 0).ok());
    }
    FaultInjector::setGlobalSpec("");

    // The cycle budget is read when the pass is built.
    ::setenv("MEGSIM_FRAME_CYCLE_BUDGET", "1", 1);
    megsim::BenchmarkData data(scene, config, "");
    megsim::GroundTruthPass pass(data, 1);
    ::unsetenv("MEGSIM_FRAME_CYCLE_BUDGET");
    auto blown = pass.produce(0, 0);
    ASSERT_FALSE(blown.ok());
    EXPECT_EQ(blown.error().code, Errc::FrameTimeout);
    EXPECT_NE(blown.error().message.find("cycle budget"),
              std::string::npos)
        << blown.error().message;
}

TEST(WorkloadErrors, UnknownAliasSuggestsClosestMatch)
{
    auto spec = workloads::findBenchmarkSpec("bbr3");
    ASSERT_FALSE(spec.ok());
    EXPECT_EQ(spec.error().code, Errc::UnknownAlias);
    EXPECT_NE(spec.error().message.find("did you mean 'bbr1'"),
              std::string::npos);
    EXPECT_NE(spec.error().message.find("asp"), std::string::npos);

    auto scene = workloads::tryBuildBenchmark("nope");
    ASSERT_FALSE(scene.ok());
    EXPECT_EQ(scene.error().code, Errc::UnknownAlias);
    // Nothing within distance 3 of "nope": no bogus suggestion.
    EXPECT_EQ(scene.error().message.find("did you mean"),
              std::string::npos);

    ASSERT_TRUE(workloads::findBenchmarkSpec("hcr").ok());
    EXPECT_TRUE(workloads::tryBuildBenchmark("hcr", 1.0, 1).ok());
}
