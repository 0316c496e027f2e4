/**
 * @file
 * GPU configuration: the Table I parameters of the modelled
 * Mali-450-like TBR GPU, plus the scaled evaluation profile this
 * repository uses so full ground-truth simulation stays affordable.
 */

#ifndef MSIM_GPUSIM_GPU_CONFIG_HH
#define MSIM_GPUSIM_GPU_CONFIG_HH

#include <cstdint>

#include "mem/cache.hh"
#include "mem/dram.hh"

namespace msim::gpusim
{

/**
 * The memory model of every timing simulation, as the `mem_mode` tag
 * that reports and ledgers carry. A report tagged otherwise came from
 * a sampled cache model that was removed, and loaders refuse it.
 */
constexpr const char *kMemMode = "exact";

struct MemoryConfig
{
    mem::CacheConfig l2;
    mem::DramConfig dram;
};

struct GpuConfig
{
    // Baseline GPU.
    std::uint32_t frequencyMhz = 600;
    double voltage = 1.1;
    std::uint32_t technologyNm = 65;
    std::uint32_t screenWidth = 1440;
    std::uint32_t screenHeight = 720;
    std::uint32_t tileWidth = 32;
    std::uint32_t tileHeight = 32;

    // Queues (entries, bytes/entry).
    std::uint32_t vertexInQueueEntries = 16;
    std::uint32_t vertexQueueEntryBytes = 136;
    std::uint32_t triangleQueueEntries = 16;
    std::uint32_t triangleQueueEntryBytes = 388;
    std::uint32_t fragmentQueueEntries = 64;
    std::uint32_t fragmentQueueEntryBytes = 233;
    std::uint32_t colorQueueEntries = 64;
    std::uint32_t colorQueueEntryBytes = 24;

    // Caches (64 B lines, 2-way) + memory.
    mem::CacheConfig vertexCache{4 * 1024, 64, 2, 1, 1, false};
    mem::CacheConfig textureCache{8 * 1024, 64, 2, 2, 1, false};
    mem::CacheConfig tileCache{32 * 1024, 64, 2, 2, 1, false};
    std::uint32_t numTextureCaches = 4;
    MemoryConfig memory{
        mem::CacheConfig{256 * 1024, 64, 2, 18, 8, false},
        mem::DramConfig{}};

    // Non-programmable stages.
    std::uint32_t paVerticesPerCycle = 1;
    std::uint32_t rastAttributesPerCycle = 4;
    std::uint32_t earlyZInflightQuads = 8;

    // Programmable stages.
    std::uint32_t numVertexProcessors = 4;
    std::uint32_t numFragmentProcessors = 4;

    // Visibility policy: false = TBR with early-Z, true = TBDR with
    // deferred Hidden Surface Removal (Sec. IV-A ablation).
    bool hsrEnabled = false;

    /** The paper's Table I configuration. */
    static GpuConfig baseline();

    /**
     * The scaled profile the evaluation benches run: a 192x96 screen
     * with proportionally smaller caches, so ground-truth simulation
     * of every frame of every benchmark is tractable.
     */
    static GpuConfig evaluationScaled();

    /** Hash of all timing-relevant fields (keys the frame cache). */
    std::uint64_t fingerprint() const;

    std::uint32_t tilesX() const
    {
        return (screenWidth + tileWidth - 1) / tileWidth;
    }
    std::uint32_t tilesY() const
    {
        return (screenHeight + tileHeight - 1) / tileHeight;
    }
};

} // namespace msim::gpusim

#endif // MSIM_GPUSIM_GPU_CONFIG_HH
