#include "gpusim/gpu_config.hh"

#include "sim/random.hh"

namespace msim::gpusim
{

GpuConfig
GpuConfig::baseline()
{
    return GpuConfig{};
}

GpuConfig
GpuConfig::evaluationScaled()
{
    GpuConfig c;
    // 1/7.5 of the baseline screen in both dimensions; the cache and
    // queue capacities scale with it so hit rates and backpressure stay
    // in a realistic regime instead of everything fitting on-chip.
    c.screenWidth = 192;
    c.screenHeight = 96;
    c.vertexCache.sizeBytes = 1 * 1024;
    c.textureCache.sizeBytes = 2 * 1024;
    c.tileCache.sizeBytes = 4 * 1024;
    c.memory.l2.sizeBytes = 16 * 1024;
    c.vertexInQueueEntries = 8;
    c.triangleQueueEntries = 8;
    c.fragmentQueueEntries = 32;
    c.colorQueueEntries = 32;
    return c;
}

namespace
{

std::uint64_t
mixCache(std::uint64_t h, const mem::CacheConfig &c)
{
    h = sim::hashMix(h, c.sizeBytes, c.lineBytes);
    h = sim::hashMix(h, c.ways, c.hitLatency);
    return sim::hashMix(h, c.banks, c.writeThrough);
}

} // namespace

std::uint64_t
GpuConfig::fingerprint() const
{
    std::uint64_t h = 0x4d4547u; // "MEG"
    h = sim::hashMix(h, frequencyMhz, screenWidth);
    h = sim::hashMix(h, screenHeight, tileWidth);
    h = sim::hashMix(h, tileHeight, numTextureCaches);
    h = sim::hashMix(h, vertexInQueueEntries, triangleQueueEntries);
    h = sim::hashMix(h, fragmentQueueEntries, colorQueueEntries);
    h = sim::hashMix(h, paVerticesPerCycle, rastAttributesPerCycle);
    h = sim::hashMix(h, earlyZInflightQuads, numVertexProcessors);
    h = sim::hashMix(h, numFragmentProcessors, hsrEnabled);
    h = mixCache(h, vertexCache);
    h = mixCache(h, textureCache);
    h = mixCache(h, tileCache);
    h = mixCache(h, memory.l2);
    h = sim::hashMix(h, memory.dram.rowHitLatency,
                     memory.dram.rowMissLatency);
    h = sim::hashMix(h, memory.dram.bytesPerCycle,
                     memory.dram.banks);
    h = sim::hashMix(h, memory.dram.lineBytes,
                     memory.dram.rowBytes);
    return h;
}

} // namespace msim::gpusim
