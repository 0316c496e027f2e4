/**
 * Golden stats-invariance suite: the hot-path optimizations must keep
 * every statistic bit-identical. The golden CSVs under
 * tests/perf/golden/ were generated from the pre-optimization
 * simulator (set MEGSIM_REGEN_GOLDEN=1 to regenerate after an
 * *intentional* model change), and every run here re-derives the same
 * frames at MEGSIM_THREADS=1, 2 and 8 and compares byte-for-byte.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/megsim.hh"
#include "exec/pool.hh"
#include "gpusim/gpu_config.hh"
#include "workloads/workloads.hh"

using namespace msim;

namespace
{

#ifndef MEGSIM_PERF_GOLDEN_DIR
#error "MEGSIM_PERF_GOLDEN_DIR must point at tests/perf/golden"
#endif

const std::vector<std::string> kBenches = {"hcr", "bbr1", "spd"};
constexpr std::size_t kFrames = 12;

bool
regenerating()
{
    const char *env = std::getenv("MEGSIM_REGEN_GOLDEN");
    return env && env[0] == '1';
}

std::string
goldenPath(const std::string &name)
{
    return std::string(MEGSIM_PERF_GOLDEN_DIR) + "/" + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return in ? out.str() : std::string();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
}

/** FrameStats rows as a canonical CSV text (max_digits10 doubles). */
std::string
statsCsv(const std::vector<gpusim::FrameStats> &stats)
{
    std::ostringstream out;
    const std::vector<std::string> header =
        gpusim::FrameStats::csvHeader();
    for (std::size_t i = 0; i < header.size(); ++i)
        out << (i ? "," : "") << header[i];
    out << "\n";
    char buf[64];
    for (const gpusim::FrameStats &s : stats) {
        const std::vector<double> row = s.toCsvRow();
        for (std::size_t i = 0; i < row.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%.17g", row[i]);
            out << (i ? "," : "") << buf;
        }
        out << "\n";
    }
    return out.str();
}

/** FrameActivity rows as canonical CSV text (all integers). */
std::string
activityCsv(const std::vector<gpusim::FrameActivity> &acts)
{
    std::ostringstream out;
    out << "frame,primitives,vertices,fragments,vs...,fs...\n";
    for (const gpusim::FrameActivity &a : acts) {
        out << a.frameIndex << "," << a.primitives << ","
            << a.verticesShaded << "," << a.fragmentsShaded;
        for (std::uint64_t v : a.vsCounts)
            out << "," << v;
        for (std::uint64_t v : a.fsCounts)
            out << "," << v;
        out << "\n";
    }
    return out.str();
}

class PerfGoldenTest : public ::testing::Test
{
  protected:
    void SetUp() override { saved_ = exec::Pool::configuredThreads(); }
    void TearDown() override
    {
        exec::Pool::setConfiguredThreads(saved_);
    }

    std::size_t saved_ = 1;
};

} // namespace

TEST_F(PerfGoldenTest, TimingStatsMatchGoldenAtEveryThreadCount)
{
    for (const std::string &alias : kBenches) {
        const gfx::SceneTrace scene =
            workloads::buildBenchmark(alias, 1.0, kFrames);
        const gpusim::GpuConfig config =
            gpusim::GpuConfig::evaluationScaled();
        const std::string golden = goldenPath(alias + "_stats.csv");

        if (regenerating()) {
            exec::Pool::setConfiguredThreads(1);
            megsim::BenchmarkData data(scene, config, "");
            writeFile(golden, statsCsv(data.frameStats()));
            continue;
        }

        const std::string expected = readFile(golden);
        ASSERT_FALSE(expected.empty())
            << golden
            << " missing — run with MEGSIM_REGEN_GOLDEN=1 first";
        for (std::size_t threads : {std::size_t(1), std::size_t(2),
                                    std::size_t(8)}) {
            exec::Pool::setConfiguredThreads(threads);
            megsim::BenchmarkData data(scene, config, "");
            EXPECT_EQ(statsCsv(data.frameStats()), expected)
                << alias << " at " << threads
                << " threads diverged from the pre-optimization "
                   "golden";
        }
    }
}

TEST_F(PerfGoldenTest, FunctionalActivityMatchesGolden)
{
    for (const std::string &alias : kBenches) {
        const gfx::SceneTrace scene =
            workloads::buildBenchmark(alias, 1.0, kFrames);
        const gpusim::GpuConfig config =
            gpusim::GpuConfig::evaluationScaled();
        const std::string golden = goldenPath(alias + "_activity.csv");

        if (regenerating()) {
            exec::Pool::setConfiguredThreads(1);
            megsim::BenchmarkData data(scene, config, "");
            writeFile(golden, activityCsv(data.activities()));
            continue;
        }

        const std::string expected = readFile(golden);
        ASSERT_FALSE(expected.empty())
            << golden
            << " missing — run with MEGSIM_REGEN_GOLDEN=1 first";
        for (std::size_t threads : {std::size_t(1), std::size_t(2),
                                    std::size_t(8)}) {
            exec::Pool::setConfiguredThreads(threads);
            megsim::BenchmarkData data(scene, config, "");
            EXPECT_EQ(activityCsv(data.activities()), expected)
                << alias << " at " << threads << " threads";
        }
    }
}

TEST_F(PerfGoldenTest, CheckpointJournalMatchesGolden)
{
    // The stats journal a completed pass leaves behind is its cache:
    // line-checksummed, shortest round-trip cells of the FrameStats
    // rows. It must be byte-stable pre/post optimization and across
    // thread counts.
    const std::string alias = "hcr";
    const gfx::SceneTrace scene =
        workloads::buildBenchmark(alias, 1.0, kFrames);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();
    const std::string golden = goldenPath(alias + "_stats_journal");

    auto journalBytes = [&](std::size_t threads) {
        exec::Pool::setConfiguredThreads(threads);
        const std::string dir =
            (std::string(::testing::TempDir())) + "megsim_perf_t" +
            std::to_string(threads);
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        megsim::BenchmarkData data(scene, config, dir);
        data.frameStats();
        const std::string bytes = readFile(data.cachePath("stats"));
        std::filesystem::remove_all(dir);
        return bytes;
    };

    if (regenerating()) {
        writeFile(golden, journalBytes(1));
        return;
    }

    const std::string expected = readFile(golden);
    ASSERT_FALSE(expected.empty())
        << golden << " missing — run with MEGSIM_REGEN_GOLDEN=1 first";
    for (std::size_t threads :
         {std::size_t(1), std::size_t(2), std::size_t(8)})
        EXPECT_EQ(journalBytes(threads), expected)
            << alias << " stats journal at " << threads << " threads";
}
