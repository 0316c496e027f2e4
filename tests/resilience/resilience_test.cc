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
#include <random>
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

double
counterValue(const char *name)
{
    return obs::processRegistry().scalar(name, "").value();
}

void
expectSameRows(const std::vector<gpusim::FrameStats> &got,
               const std::vector<gpusim::FrameStats> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t f = 0; f < want.size(); ++f)
        EXPECT_EQ(got[f].toCsvRow(), want[f].toCsvRow()) << "frame " << f;
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

TEST_F(ResilienceTest, JournalCacheDetectsMissingForeignTruncatedAndCorrupt)
{
    const Rows stats = {{0, 10.5}, {1, 11.5}, {2, 12.5}};
    const Rows acts = {{0, 1}, {1, 2}, {2, 3}};
    const Checkpoint ckpt(path("bench"), 0xfeedULL, 3, 2, 2, 0);

    auto missing = ckpt.read();
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, Errc::NotFound);

    ASSERT_TRUE(ckpt.write(stats, acts).ok());
    auto fresh = ckpt.read();
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(fresh->stats.rows, stats);
    EXPECT_EQ(fresh->activity.rows, acts);
    EXPECT_FALSE(fresh->corrupt());
    // No temp file left behind by the atomic writes.
    EXPECT_FALSE(
        std::filesystem::exists(ckpt.statsJournalPath() + ".tmp"));
    const std::string pristine = slurp(ckpt.statsJournalPath());

    // Same stem, another scene/config fingerprint.
    auto foreign = Checkpoint(path("bench"), 0xbeefULL, 3, 2, 2, 0).read();
    ASSERT_FALSE(foreign.ok());
    EXPECT_EQ(foreign.error().code, Errc::BadFingerprint);

    // Truncation: without its last whole line the journal is a shorter
    // valid prefix, which a pass resumes; it is no corruption.
    std::string cut = pristine;
    cut.erase(cut.find_last_of('\n', cut.size() - 2) + 1);
    spit(ckpt.statsJournalPath(), cut);
    auto truncated = ckpt.read();
    ASSERT_TRUE(truncated.ok());
    EXPECT_EQ(truncated->stats.rows, Rows(stats.begin(), stats.end() - 1));
    EXPECT_FALSE(truncated->corrupt());

    // Bit rot: one flipped digit fails the line's checksum.
    std::string flipped = pristine;
    const std::size_t digit = flipped.find("11.5");
    ASSERT_NE(digit, std::string::npos);
    flipped[digit] = '9';
    spit(ckpt.statsJournalPath(), flipped);
    auto rotten = ckpt.read();
    ASSERT_TRUE(rotten.ok());
    EXPECT_TRUE(rotten->corrupt());
    EXPECT_EQ(rotten->stats.badLine, 2u);
    EXPECT_STREQ(rotten->stats.problem, "fails its checksum");
    EXPECT_EQ(rotten->stats.rows, Rows(stats.begin(), stats.begin() + 1));

    // Injected corruption refuses the first line of the named journal.
    spit(ckpt.statsJournalPath(), pristine);
    FaultInjector::setGlobalSpec("cache.corrupt:kind=stats");
    auto injected = ckpt.read();
    ASSERT_TRUE(injected.ok());
    EXPECT_EQ(injected->stats.badLine, 1u);
    EXPECT_TRUE(injected->stats.rows.empty());
    EXPECT_EQ(injected->activity.rows, acts);
}

TEST_F(ResilienceTest, AtomicWriteSurvivesInjectedWriteFailure)
{
    ASSERT_TRUE(atomicWriteFile(path("a.txt"), "pristine\n").ok());

    FaultInjector::setGlobalSpec("io.write");
    EXPECT_FALSE(atomicWriteFile(path("a.txt"), "clobbered\n").ok());
    // The failed write must not have clobbered the existing file.
    EXPECT_EQ(slurp(path("a.txt")), "pristine\n");
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

TEST_F(ResilienceTest, ResumeThatRecoversNothingHandsBackNoRows)
{
    // A kill between the two journal writes of the first frame: the
    // stats journal holds a whole line the activity journal lacks. The
    // served worker starts its reply from the recovered rows, so none
    // may be left over.
    {
        Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2, 0);
        EXPECT_EQ(ckpt.resume(), 0u);
    }
    {
        const std::string payload = "0,10.5";
        char tail[24];
        std::snprintf(tail, sizeof(tail), "#%016" PRIx64,
                      fnv1a(payload));
        std::ofstream extra(path("bench") + ".ckpt.stats.jnl",
                            std::ios::app);
        extra << payload << tail << '\n';
    }
    Checkpoint ckpt(path("bench"), 0xabcULL, 5, 2, 2, 0);
    EXPECT_EQ(ckpt.resume(), 0u);
    EXPECT_TRUE(ckpt.statsRows().empty());
    EXPECT_TRUE(ckpt.activityRows().empty());
    EXPECT_EQ(slurp(path("bench") + ".ckpt.stats.jnl"), "");
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

    // The finished pass leaves its checkpoint behind as the cache.
    EXPECT_TRUE(
        std::filesystem::exists(survivor.checkpoint().manifestPath()));
    EXPECT_TRUE(std::filesystem::exists(survivor.cachePath("stats")));
    megsim::BenchmarkData reader(scene, config, dir_.string());
    EXPECT_EQ(reader.probeCaches(), megsim::CacheProbe::Loaded);
}

TEST_F(ResilienceTest, KillAfterTheLastFrameLeavesAFreshCache)
{
    // Killed right after the last frame's journal line: there is no
    // store or discard left to do, so the journals already are the
    // cache and nothing simulates again.
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
        FaultInjector::setGlobalSpec("run.kill:frame=4");
        megsim::BenchmarkData doomed(scene, config, dir_.string());
        doomed.frameStats();
        _exit(42); // reaching this means the fault never fired
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    EXPECT_EQ(WTERMSIG(status), SIGKILL);

    const double resumedBefore =
        counterValue("resilience.checkpoint.frames_resumed");
    megsim::BenchmarkData survivor(scene, config, dir_.string());
    EXPECT_EQ(survivor.probeCaches(), megsim::CacheProbe::Loaded);
    expectSameRows(survivor.frameStats(), expected);
    EXPECT_EQ(counterValue("resilience.checkpoint.frames_resumed"),
              resumedBefore);
}

TEST_F(ResilienceTest, CorruptLineResumesFromTheLinesBeforeIt)
{
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 5);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    megsim::BenchmarkData writer(scene, config, dir_.string());
    const std::vector<gpusim::FrameStats> expected =
        writer.frameStats();

    // Damage the frame index of line 3 (frame 2) of the stats journal.
    const std::string statsPath = writer.cachePath("stats");
    std::string text = slurp(statsPath);
    const std::size_t line3 = text.find('\n', text.find('\n') + 1) + 1;
    ASSERT_EQ(text[line3], '2');
    text[line3] = '7';
    spit(statsPath, text);

    const double detectedBefore =
        counterValue("resilience.cache.corrupt_detected");
    const double resumedBefore =
        counterValue("resilience.checkpoint.frames_resumed");
    megsim::BenchmarkData reader(scene, config, dir_.string());
    EXPECT_EQ(reader.probeCaches(), megsim::CacheProbe::Invalid);
    EXPECT_EQ(counterValue("resilience.cache.corrupt_detected"),
              detectedBefore + 1.0);
    expectSameRows(reader.frameStats(), expected);
    EXPECT_EQ(counterValue("resilience.checkpoint.frames_resumed"),
              resumedBefore + 2.0);

    megsim::BenchmarkData again(scene, config, dir_.string());
    EXPECT_EQ(again.probeCaches(), megsim::CacheProbe::Loaded);
}

TEST_F(ResilienceTest, TornTailResumesWithoutAWarningOrACount)
{
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 5);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    megsim::BenchmarkData writer(scene, config, dir_.string());
    const std::vector<gpusim::FrameStats> expected =
        writer.frameStats();

    // A kill in the middle of the last append: line 5 lost its end.
    const std::string statsPath = writer.cachePath("stats");
    std::string text = slurp(statsPath);
    text.resize(text.size() - 10);
    spit(statsPath, text);

    const double detectedBefore =
        counterValue("resilience.cache.corrupt_detected");
    const double regeneratedBefore =
        counterValue("resilience.cache.regenerated");
    const double resumedBefore =
        counterValue("resilience.checkpoint.frames_resumed");
    ::testing::internal::CaptureStderr();
    megsim::BenchmarkData reader(scene, config, dir_.string());
    EXPECT_EQ(reader.probeCaches(), megsim::CacheProbe::Missing);
    const std::vector<gpusim::FrameStats> resumed = reader.frameStats();
    const std::string logged = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(logged.find("warn"), std::string::npos) << logged;
    expectSameRows(resumed, expected);
    EXPECT_EQ(counterValue("resilience.cache.corrupt_detected"),
              detectedBefore);
    EXPECT_EQ(counterValue("resilience.cache.regenerated"),
              regeneratedBefore);
    EXPECT_EQ(counterValue("resilience.checkpoint.frames_resumed"),
              resumedBefore + 4.0);
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

    // The rebuilt cache loads again.
    megsim::BenchmarkData again(scene, config, dir_.string());
    EXPECT_EQ(again.probeCaches(), megsim::CacheProbe::Loaded);
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

#ifndef MEGSIM_PERF_GOLDEN_DIR
#error "MEGSIM_PERF_GOLDEN_DIR must point at tests/perf/golden"
#endif

TEST(JournalMutation, ParserLoadsAGoldenPrefixOrStopsAtTheFirstBadLine)
{
    // The 12-frame stats journal golden, mutated every way a disk, a
    // kill or a hand edit can: the one parser of on-disk rows must
    // load a prefix of the golden's rows, bit for bit, and stop at the
    // first bad line, never crash, never return a row of the wrong
    // width and never accept a line whose checksum fails.
    const std::string golden =
        slurp(std::string(MEGSIM_PERF_GOLDEN_DIR) + "/hcr_stats_journal");
    const std::size_t cols = gpusim::FrameStats::csvHeader().size();
    const std::size_t frames = 12;
    const JournalRows reference = parseJournal(golden, cols, frames, 0);
    ASSERT_EQ(reference.rows.size(), frames);
    ASSERT_EQ(reference.badLine, 0u);
    ASSERT_FALSE(reference.tail);

    std::vector<std::string> lines; // each with its newline
    for (std::size_t at = 0; at < golden.size();) {
        const std::size_t eol = golden.find('\n', at) + 1;
        lines.push_back(golden.substr(at, eol - at));
        at = eol;
    }
    ASSERT_EQ(lines.size(), frames);
    const auto join = [](const std::vector<std::string> &parts) {
        std::string text;
        for (const std::string &part : parts)
            text += part;
        return text;
    };

    std::size_t inputs = 0;
    const auto check = [&](const std::string &text) {
        ++inputs;
        const JournalRows got = parseJournal(text, cols, frames, 0);
        ASSERT_LE(got.rows.size(), frames);
        std::size_t prefix = 0;
        for (std::size_t r = 0; r < got.rows.size(); ++r) {
            ASSERT_EQ(got.rows[r].size(), cols) << "row " << r;
            for (std::size_t c = 0; c < cols; ++c)
                ASSERT_EQ(std::bit_cast<std::uint64_t>(got.rows[r][c]),
                          std::bit_cast<std::uint64_t>(
                              reference.rows[r][c]))
                    << "row " << r << " cell " << c;
            // An accepted line is the golden's own line, checksum and
            // all.
            ASSERT_EQ(text.compare(prefix, lines[r].size(), lines[r]), 0)
                << "row " << r;
            prefix += lines[r].size();
        }
        // Short of the total, the parser stopped at a bad line exactly
        // when a whole line follows the prefix; an unterminated rest
        // is a torn tail.
        const bool wholeLineFollows =
            text.find('\n', prefix) != std::string::npos;
        if (got.rows.size() < frames)
            EXPECT_EQ(got.badLine, wholeLineFollows ? got.rows.size() + 1
                                                    : 0u);
        else
            EXPECT_EQ(got.badLine, 0u);
        EXPECT_EQ(got.problem != nullptr, got.badLine != 0);
        EXPECT_EQ(got.tail, prefix != text.size());
    };

    // Truncation at every byte offset: a torn tail, never corruption.
    for (std::size_t n = 0; n <= golden.size(); ++n) {
        check(golden.substr(0, n));
        const JournalRows cut =
            parseJournal(golden.substr(0, n), cols, frames, 0);
        EXPECT_EQ(cut.badLine, 0u) << "cut at " << n;
    }

    std::mt19937_64 rng(0x6d656773696dULL);
    const auto at = [&](std::size_t size) {
        return static_cast<std::size_t>(rng() % size);
    };
    for (int i = 0; i < 1000; ++i) {
        std::string flipped = golden;
        flipped[at(flipped.size())] ^= static_cast<char>(1 << at(8));
        check(flipped);
    }
    const std::string inserts = ",#\n.-e0x \r\x7f";
    for (std::size_t n = 0; n < golden.size(); ++n) {
        std::string shorter = golden;
        shorter.erase(n, 1);
        check(shorter);
        std::string longer = golden;
        longer.insert(n, 1, inserts[at(inserts.size())]);
        check(longer);
    }
    for (std::size_t l = 0; l + 1 < frames; ++l) {
        std::vector<std::string> duplicated = lines;
        duplicated.insert(duplicated.begin() + static_cast<long>(l),
                          lines[l]);
        check(join(duplicated));
        std::vector<std::string> swapped = lines;
        std::swap(swapped[l], swapped[l + 1]);
        check(join(swapped));
    }
    std::string crlf;
    for (const std::string &line : lines)
        crlf += line.substr(0, line.size() - 1) + "\r\n";
    check(crlf);
    check(golden.substr(0, golden.size() - 1)); // no final newline

    // Cells strtod reads but a journal never holds, each sealed under
    // a valid checksum so only the cell parser can refuse them.
    for (const char *cell : {"1e999", "nan", "0x10", " 1", "+1", "inf",
                             "", "1.5.2"}) {
        std::string payload = lines[2].substr(0, lines[2].rfind('#'));
        const std::size_t comma = payload.find(',');
        payload.replace(comma + 1, payload.find(',', comma + 1) - comma - 1,
                        cell);
        char tag[24];
        std::snprintf(tag, sizeof(tag), "#%016" PRIx64, fnv1a(payload));
        std::vector<std::string> edited = lines;
        edited[2] = payload + tag + "\n";
        const std::string text = join(edited);
        check(text);
        const JournalRows got = parseJournal(text, cols, frames, 0);
        EXPECT_EQ(got.rows.size(), 2u) << cell;
        EXPECT_EQ(got.badLine, 3u) << cell;
    }
    EXPECT_GT(inputs, 5000u);
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
