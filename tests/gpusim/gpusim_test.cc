#include <gtest/gtest.h>

#include <set>
#include <string>

#include "gpusim/functional_simulator.hh"
#include "gpusim/gpu_config.hh"
#include "gpusim/timing_simulator.hh"
#include "workloads/workloads.hh"

using namespace msim;
using namespace msim::gpusim;

namespace
{

/** A short real workload shared by the simulator tests. */
const gfx::SceneTrace &
testScene()
{
    static const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 4);
    return scene;
}

} // namespace

TEST(GpuConfig, BaselineMatchesTableI)
{
    const GpuConfig config = GpuConfig::baseline();
    EXPECT_EQ(config.frequencyMhz, 600u);
    EXPECT_EQ(config.screenWidth, 1440u);
    EXPECT_EQ(config.screenHeight, 720u);
    EXPECT_EQ(config.tileWidth, 32u);
    EXPECT_EQ(config.tileHeight, 32u);
    EXPECT_EQ(config.numVertexProcessors, 4u);
    EXPECT_EQ(config.numFragmentProcessors, 4u);
    EXPECT_EQ(config.numTextureCaches, 4u);
    EXPECT_EQ(config.vertexCache.sizeBytes, 4u * 1024);
    EXPECT_EQ(config.textureCache.sizeBytes, 8u * 1024);
    EXPECT_EQ(config.tileCache.sizeBytes, 32u * 1024);
    EXPECT_EQ(config.memory.l2.sizeBytes, 256u * 1024);
    EXPECT_FALSE(config.hsrEnabled);
    EXPECT_EQ(config.tilesX(), 45u);
    EXPECT_EQ(config.tilesY(), 23u);
}

TEST(GpuConfig, FingerprintSeparatesConfigs)
{
    const GpuConfig a = GpuConfig::baseline();
    GpuConfig b = a;
    b.numFragmentProcessors = 8;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    EXPECT_NE(GpuConfig::baseline().fingerprint(),
              GpuConfig::evaluationScaled().fingerprint());
}

TEST(TimingSimulator, ProducesWorkOnARealFrame)
{
    SceneBinding binding(testScene());
    TimingSimulator timing(GpuConfig::evaluationScaled(), binding);
    const FrameStats stats = timing.simulate(testScene().frames[0]);
    EXPECT_GT(stats.cycles, 0u);
    EXPECT_GT(stats.vsInvocations, 0u);
    EXPECT_GT(stats.fsInvocations, 0u);
    EXPECT_GT(stats.primitives, 0u);
    EXPECT_GT(stats.l2Accesses, 0u);
    EXPECT_GT(stats.dramAccesses, 0u);
    EXPECT_GT(stats.energy.totalNj(), 0.0);
}

/**
 * Acceptance: FrameStats is assembled from the registry, so a dump of
 * the registry after a frame must agree with the returned struct —
 * single source of truth.
 */
TEST(TimingSimulator, RegistryAgreesWithFrameStats)
{
    SceneBinding binding(testScene());
    TimingSimulator timing(GpuConfig::evaluationScaled(), binding);
    const FrameStats stats = timing.simulate(testScene().frames[1]);

    auto counter = [&](const char *name) {
        const obs::Stat *stat = timing.stats().find(name);
        EXPECT_NE(stat, nullptr) << name;
        return stat ? static_cast<std::uint64_t>(stat->value()) : 0u;
    };
    EXPECT_EQ(counter("gpu.frame.cycles"), stats.cycles);
    EXPECT_EQ(counter("gpu.frame.stall_cycles"), stats.stallCycles);
    EXPECT_EQ(counter("gpu.geometry.vs_invocations"),
              stats.vsInvocations);
    EXPECT_EQ(counter("gpu.geometry.vs_instructions"),
              stats.vsInstructions);
    EXPECT_EQ(counter("gpu.raster.fs_invocations"),
              stats.fsInvocations);
    EXPECT_EQ(counter("gpu.raster.fs_instructions"),
              stats.fsInstructions);
    EXPECT_EQ(counter("gpu.tiling.triangles"), stats.primitives);
    EXPECT_EQ(counter("gpu.vertex_cache.accesses"),
              stats.vertexCacheAccesses);
    EXPECT_EQ(counter("gpu.texture_cache.accesses"),
              stats.textureCacheAccesses);
    EXPECT_EQ(counter("gpu.tile_cache.accesses"),
              stats.tileCacheAccesses);
    EXPECT_EQ(counter("gpu.l2.accesses"), stats.l2Accesses);
    EXPECT_EQ(counter("gpu.dram.transactions"), stats.dramAccesses);
    EXPECT_EQ(counter("gpu.dram.bytes"), stats.dramBytes);
    EXPECT_EQ(counter("gpu.raster.earlyz_kills"), stats.earlyZKills);
}

TEST(TimingSimulator, RepeatedSimulationIsDeterministic)
{
    SceneBinding binding(testScene());
    TimingSimulator timing(GpuConfig::evaluationScaled(), binding);
    const FrameStats a = timing.simulate(testScene().frames[0]);
    const FrameStats b = timing.simulate(testScene().frames[0]);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2Accesses, b.l2Accesses);
    EXPECT_EQ(a.dramAccesses, b.dramAccesses);
    EXPECT_EQ(a.fsInvocations, b.fsInvocations);
}

/**
 * Per-frame cold start: simulating frame 2 directly must match
 * simulating it after other frames. Representative-only simulation
 * (the core MEGsim speedup) depends on this.
 */
TEST(TimingSimulator, FrameResultsAreOrderIndependent)
{
    SceneBinding binding(testScene());
    TimingSimulator warm(GpuConfig::evaluationScaled(), binding);
    warm.simulate(testScene().frames[0]);
    warm.simulate(testScene().frames[1]);
    const FrameStats after = warm.simulate(testScene().frames[2]);

    TimingSimulator cold(GpuConfig::evaluationScaled(), binding);
    const FrameStats direct = cold.simulate(testScene().frames[2]);
    EXPECT_EQ(after.cycles, direct.cycles);
    EXPECT_EQ(after.l2Accesses, direct.l2Accesses);
    EXPECT_EQ(after.dramAccesses, direct.dramAccesses);
}

TEST(TimingSimulator, HsrNeverShadesMoreFragments)
{
    SceneBinding binding(testScene());
    GpuConfig config = GpuConfig::evaluationScaled();
    TimingSimulator tbr(config, binding);
    const FrameStats earlyZ = tbr.simulate(testScene().frames[0]);

    config.hsrEnabled = true;
    TimingSimulator tbdr(config, binding);
    const FrameStats hsr = tbdr.simulate(testScene().frames[0]);
    EXPECT_LE(hsr.fsInvocations, earlyZ.fsInvocations);
    EXPECT_GT(hsr.fsInvocations, 0u);
}

TEST(TimingSimulator, ActivityAgreesWithFunctionalSimulator)
{
    // The first frames and the start of gameplay of every game: the
    // per-tile scan and the full-screen functional pass share the
    // rasterizer but not the depth buffer.
    const GpuConfig config = GpuConfig::evaluationScaled();
    const std::size_t frames[] = {0, 1, 2, 3, 150, 151, 152, 153};
    for (const std::string &alias : workloads::benchmarkNames()) {
        const gfx::SceneTrace scene =
            workloads::buildBenchmark(alias, 1.0, 154);
        SceneBinding binding(scene);
        FunctionalSimulator functional(config, binding);
        TimingSimulator timing(config, binding);
        for (std::size_t f : frames) {
            const FrameActivity fn = functional.simulate(scene.frames[f]);
            FrameActivity fromTiming;
            timing.simulate(scene.frames[f], &fromTiming);

            const std::string where = alias + " frame " + std::to_string(f);
            EXPECT_EQ(fn.primitives, fromTiming.primitives) << where;
            EXPECT_EQ(fn.verticesShaded, fromTiming.verticesShaded)
                << where;
            EXPECT_EQ(fn.fragmentsShaded, fromTiming.fragmentsShaded)
                << where;
            EXPECT_EQ(fn.vsCounts, fromTiming.vsCounts) << where;
            EXPECT_EQ(fn.fsCounts, fromTiming.fsCounts) << where;
        }
    }
}

TEST(TimingSimulator, TracingEmitsEveryPipelineStage)
{
    SceneBinding binding(testScene());
    TimingSimulator timing(GpuConfig::evaluationScaled(), binding,
                           1 << 20);
    timing.simulate(testScene().frames[0]);

    std::set<std::string> names;
    timing.trace().forEach(
        [&](const obs::TraceEvent &e) { names.insert(e.name); });
    const char *stages[] = {
        "vertex_fetch", "vertex_shader", "primitive_assembly",
        "binning",      "rasterizer",    "early_z",
        "fragment_shader", "blend", "tile_flush",
    };
    for (const char *stage : stages)
        EXPECT_TRUE(names.count(stage)) << "no events for " << stage;
    EXPECT_TRUE(names.count("frame"));
    EXPECT_TRUE(names.count("dram"));
}

TEST(TimingSimulator, TracingOffEmitsNothing)
{
    SceneBinding binding(testScene());
    // A simulator built without a trace capacity has no ring at all.
    TimingSimulator timing(GpuConfig::evaluationScaled(), binding);
    timing.simulate(testScene().frames[0]);
    EXPECT_EQ(timing.trace().size(), 0u);
    EXPECT_EQ(timing.trace().emittedCount(), 0u);
    EXPECT_EQ(timing.trace().capacity(), 0u);
}

TEST(FrameStats, CsvSchemaRoundTrips)
{
    SceneBinding binding(testScene());
    TimingSimulator timing(GpuConfig::evaluationScaled(), binding);
    const FrameStats stats = timing.simulate(testScene().frames[0]);

    const std::vector<double> row = stats.toCsvRow();
    ASSERT_EQ(row.size(), FrameStats::csvHeader().size());
    const FrameStats back = FrameStats::fromCsvRow(row);
    EXPECT_EQ(back.cycles, stats.cycles);
    EXPECT_EQ(back.fsInvocations, stats.fsInvocations);
    EXPECT_EQ(back.dramBytes, stats.dramBytes);
    EXPECT_DOUBLE_EQ(back.energy.rasterNj, stats.energy.rasterNj);
    EXPECT_DOUBLE_EQ(back.ipc(), stats.ipc());
}
