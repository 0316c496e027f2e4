#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "workloads/composer.hh"
#include "workloads/workloads.hh"

using namespace msim;
using namespace msim::workloads;

namespace
{

bool
drawsEqual(const gfx::DrawCall &a, const gfx::DrawCall &b)
{
    return a.meshId == b.meshId && a.vsId == b.vsId &&
           a.fsId == b.fsId && a.textureId == b.textureId &&
           a.transparent == b.transparent && a.x == b.x && a.y == b.y &&
           a.depth == b.depth && a.scale == b.scale &&
           a.rotation == b.rotation;
}

} // namespace

TEST(Workloads, TableIiListsEightBenchmarks)
{
    const std::vector<std::string> &names = benchmarkNames();
    ASSERT_EQ(names.size(), 8u);
    const std::vector<std::string> expected = {
        "asp", "bbr1", "bbr2", "hcr", "hwh", "jjo", "pvz", "spd"};
    EXPECT_EQ(names, expected);
}

TEST(Workloads, EveryBenchmarkComposesAndValidates)
{
    for (const std::string &alias : benchmarkNames()) {
        const GameSpec spec = benchmarkSpec(alias);
        EXPECT_GE(spec.frames, 2000u) << alias;
        const gfx::SceneTrace scene = buildBenchmark(alias, 1.0, 32);
        EXPECT_EQ(scene.numFrames(), 32u) << alias;
        EXPECT_EQ(scene.validate(), "") << alias;
        EXPECT_GT(scene.frames[0].draws.size(), 0u) << alias;
        EXPECT_EQ(scene.numVertexShaders(),
                  static_cast<std::size_t>(spec.numVertexShaders))
            << alias;
        EXPECT_EQ(scene.numFragmentShaders(),
                  static_cast<std::size_t>(spec.numFragmentShaders))
            << alias;
    }
}

/**
 * Truncated builds must be an exact prefix of longer builds: fig5/fig6
 * results at 900 frames and MEGSIM_FRAME_LIMIT runs stay consistent
 * with the full sequences.
 */
TEST(Workloads, TruncationIsPrefixStable)
{
    const gfx::SceneTrace shortRun = buildBenchmark("bbr1", 1.0, 16);
    const gfx::SceneTrace longRun = buildBenchmark("bbr1", 1.0, 64);
    ASSERT_EQ(shortRun.numFrames(), 16u);
    ASSERT_EQ(longRun.numFrames(), 64u);
    EXPECT_NE(shortRun.contentHash(), longRun.contentHash());

    for (std::size_t f = 0; f < shortRun.numFrames(); ++f) {
        const auto &a = shortRun.frames[f].draws;
        const auto &b = longRun.frames[f].draws;
        ASSERT_EQ(a.size(), b.size()) << "frame " << f;
        for (std::size_t d = 0; d < a.size(); ++d)
            ASSERT_TRUE(drawsEqual(a[d], b[d]))
                << "frame " << f << " draw " << d;
    }
}

/**
 * Every game's full-length scene, pinned. The scene hash is part of
 * every frame-stats cache name, so a composer change that moves any
 * draw shows here before it invalidates caches and goldens downstream.
 */
TEST(Workloads, FullLengthScenesArePinned)
{
    const std::vector<std::pair<std::string, std::uint64_t>> pinned = {
        {"asp", 0xe383d2296ec2088cULL},  {"bbr1", 0xb4d06a967b969d85ULL},
        {"bbr2", 0x277cc83666bc4de7ULL}, {"hcr", 0x324fd32e863b1c75ULL},
        {"hwh", 0xf61fa0719a78135aULL},  {"jjo", 0x714f6f9ea55c8ee9ULL},
        {"pvz", 0x4c794ef8fc6944feULL},  {"spd", 0x7715ddf02251fff7ULL},
    };
    ASSERT_EQ(pinned.size(), benchmarkNames().size());
    for (const auto &[alias, hash] : pinned)
        EXPECT_EQ(buildBenchmark(alias).contentHash(), hash) << alias;
}

TEST(Workloads, CompositionIsDeterministic)
{
    const gfx::SceneTrace a = buildBenchmark("spd", 1.0, 8);
    const gfx::SceneTrace b = buildBenchmark("spd", 1.0, 8);
    EXPECT_EQ(a.contentHash(), b.contentHash());
}

TEST(Workloads, ScaleThinsSpritePopulations)
{
    const gfx::SceneTrace full = buildBenchmark("pvz", 1.0, 8);
    const gfx::SceneTrace thin = buildBenchmark("pvz", 0.25, 8);
    std::size_t fullDraws = 0, thinDraws = 0;
    for (std::size_t f = 0; f < 8; ++f) {
        fullDraws += full.frames[f].draws.size();
        thinDraws += thin.frames[f].draws.size();
    }
    EXPECT_LT(thinDraws, fullDraws);
    EXPECT_GT(thinDraws, 0u);
}

/**
 * Warnings @p read prints for the variable @p name set to @p value,
 * and the value it reads (@p out).
 */
template <typename T, typename Read>
std::string
readWarnings(const char *name, const char *value, Read read, T &out)
{
    ::setenv(name, value, 1);
    ::testing::internal::CaptureStderr();
    out = read();
    const std::string warned = ::testing::internal::GetCapturedStderr();
    ::unsetenv(name);
    return warned;
}

TEST(Workloads, FrameLimitParsesStrictly)
{
    std::size_t frames = 99;
    for (const char *bad : {"4x", "abc", "-1", "2.5", "1e400", "inf"}) {
        const std::string warned = readWarnings(
            "MEGSIM_FRAME_LIMIT", bad, frameLimitFromEnv, frames);
        EXPECT_EQ(frames, 0u) << bad;
        EXPECT_NE(warned.find(std::string("MEGSIM_FRAME_LIMIT='") + bad +
                              "'"),
                  std::string::npos)
            << bad << ": " << warned;
    }
    // Empty reads as unset, with nothing to report.
    EXPECT_EQ(readWarnings("MEGSIM_FRAME_LIMIT", "", frameLimitFromEnv,
                           frames),
              "");
    EXPECT_EQ(frames, 0u);
    EXPECT_EQ(readWarnings("MEGSIM_FRAME_LIMIT", "48", frameLimitFromEnv,
                           frames),
              "");
    EXPECT_EQ(frames, 48u);
    EXPECT_EQ(frameLimitFromEnv(), 0u);

    // One report per process and value, however many readers.
    EXPECT_EQ(readWarnings("MEGSIM_FRAME_LIMIT", "4x", frameLimitFromEnv,
                           frames),
              "");
}

TEST(Workloads, ScaleParsesStrictly)
{
    double scale = 0.0;
    for (const char *bad : {"0", "-1", "abc", "nan", "inf"}) {
        const std::string warned =
            readWarnings("MEGSIM_SCALE", bad, scaleFromEnv, scale);
        EXPECT_EQ(scale, 1.0) << bad;
        EXPECT_NE(warned.find(std::string("MEGSIM_SCALE='") + bad + "'"),
                  std::string::npos)
            << bad << ": " << warned;
    }
    EXPECT_EQ(readWarnings("MEGSIM_SCALE", "0.25", scaleFromEnv, scale), "");
    EXPECT_EQ(scale, 0.25);
    EXPECT_EQ(scaleFromEnv(), 1.0);
}

TEST(Workloads, UnknownAliasIsFatal)
{
    EXPECT_DEATH(benchmarkSpec("doom"), "doom");
}

TEST(Workloads, ComposerRefusesTablesA16BitIdCannotAddress)
{
    // A DrawCall's shader and mesh ids are uint16 and its texture id
    // int16 (-1 = untextured): the largest tables they address
    // compose, one entry more is refused by table name.
    GameSpec spec = benchmarkSpec("hcr");
    spec.frames = 2;
    spec.numVertexShaders = 1;
    spec.numFragmentShaders = 65535;
    spec.numTextures = 32768;
    const gfx::SceneTrace scene = SceneComposer(spec).compose();
    EXPECT_EQ(scene.shaders.size(), 65536u);
    EXPECT_EQ(scene.textures.size(), 32768u);
    EXPECT_EQ(scene.validate(), "");

    GameSpec shaders = spec;
    shaders.numFragmentShaders = 65536;
    EXPECT_DEATH(SceneComposer{shaders}, "shader table");
    GameSpec textures = spec;
    textures.numTextures = 32769;
    EXPECT_DEATH(SceneComposer{textures}, "texture table");
    GameSpec meshes = spec;
    meshes.numWorlds = 65537;
    EXPECT_DEATH(SceneComposer{meshes}, "mesh table");

    gfx::SceneTrace wide = scene;
    wide.textures.resize(32769);
    EXPECT_EQ(wide.validate(),
              "texture table is too large for 16-bit draw ids");
}

TEST(Workloads, DrawOrderPutsBackdropsFirstAndOverlaysLast)
{
    // Draws are grouped Backdrop -> Sprite -> Overlay (painter's
    // order between bands; sprites rely on the depth test).
    const gfx::SceneTrace scene = buildBenchmark("hcr", 1.0, 4);
    for (const gfx::FrameTrace &frame : scene.frames) {
        ASSERT_GE(frame.draws.size(), 2u);
        EXPECT_GT(frame.draws.front().depth, 0.9f)
            << "frame " << frame.index << " must start with a backdrop";
        EXPECT_LT(frame.draws.back().depth, 0.2f)
            << "frame " << frame.index << " must end with an overlay";
    }
}
