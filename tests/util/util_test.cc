#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "scratch_dir.hh"
#include "util/csv.hh"
#include "util/glob.hh"
#include "util/image.hh"
#include "util/summary.hh"

using namespace msim::util;

namespace
{

std::filesystem::path
tempFile(const char *name)
{
    const std::filesystem::path dir =
        msim::test::scratchDir() / "megsim_util_test";
    std::filesystem::create_directories(dir);
    return dir / name;
}

} // namespace

TEST(Csv, WritesHeaderAndRoundTripRows)
{
    CsvTable table;
    table.header = {"frame", "cycles", "ipc"};
    table.rows = {{0.0, 1000.0, 1.5}, {1.0, 2000.0, 0.25}};
    const std::filesystem::path path = tempFile("table.csv");
    writeCsv(path.string(), table);

    std::ifstream in(path);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(text, "frame,cycles,ipc\n0,1000,1.5\n1,2000,0.25\n");
}

TEST(Glob, MatchesStarQuestionAndLiterals)
{
    EXPECT_TRUE(globMatch("*", "anything.at.all"));
    EXPECT_TRUE(globMatch("gpu.l2.*", "gpu.l2.misses"));
    EXPECT_FALSE(globMatch("gpu.l2.*", "gpu.dram.misses"));
    EXPECT_TRUE(globMatch("gpu.*.misses", "gpu.l2.misses"));
    EXPECT_TRUE(globMatch("gpu.l?", "gpu.l2"));
    EXPECT_FALSE(globMatch("gpu.l?", "gpu.l22"));
    EXPECT_TRUE(globMatch("exact", "exact"));
    EXPECT_FALSE(globMatch("exact", "exact.not"));
    EXPECT_TRUE(globMatch("*misses", "gpu.l2.misses"));
}

TEST(Summary, MeanStddevPercentile)
{
    const std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(mean(v), 2.5);
    EXPECT_NEAR(stddev(v), std::sqrt(5.0 / 3.0), 1e-12)
        << "sample (n-1) standard deviation";
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile({}, 95.0), 0.0);
}

TEST(Image, PgmAndPpmFilesHaveBinaryHeaders)
{
    GrayImage gray(4, 2);
    gray.at(3, 1) = 200;
    const std::filesystem::path pgm = tempFile("t.pgm");
    gray.writePgm(pgm.string());
    ASSERT_TRUE(std::filesystem::exists(pgm));
    // P5 header + 4*2 payload bytes.
    EXPECT_GE(std::filesystem::file_size(pgm), 8u + 8u);

    RgbImage rgb(2, 2);
    rgb.at(0, 0) = RgbImage::categorical(1);
    const std::filesystem::path ppm = tempFile("t.ppm");
    rgb.writePpm(ppm.string());
    ASSERT_TRUE(std::filesystem::exists(ppm));
    EXPECT_GE(std::filesystem::file_size(ppm), 8u + 12u);
}

TEST(Image, CategoricalPaletteSeparatesNeighbors)
{
    const Rgb a = RgbImage::categorical(0);
    const Rgb b = RgbImage::categorical(1);
    EXPECT_TRUE(a.r != b.r || a.g != b.g || a.b != b.b);
}
