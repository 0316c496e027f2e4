#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "obs/stats.hh"

using namespace msim;
using namespace msim::mem;

namespace
{

CacheConfig
smallCache()
{
    CacheConfig config;
    config.sizeBytes = 256;  // 4 lines
    config.lineBytes = 64;
    config.ways = 2;         // 2 sets x 2 ways
    return config;
}

} // namespace

TEST(Cache, MissThenHitOnSameLine)
{
    Cache cache(smallCache());
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x103f, false).hit)
        << "same 64 B line must hit";
    EXPECT_FALSE(cache.access(0x1040, false).hit)
        << "next line is a different block";
    EXPECT_EQ(cache.accesses(), 4u);
    EXPECT_EQ(cache.hits(), 2u);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(Cache, LruEvictionWithinSet)
{
    Cache cache(smallCache());
    // Three lines mapping to the same set of a 2-way cache:
    // set index = (addr/64) % 2, so use even line numbers.
    cache.access(0x0000, false);
    cache.access(0x0080, false);
    cache.access(0x0000, false);            // touch A -> B is LRU
    cache.access(0x0100, false);            // evicts B
    EXPECT_TRUE(cache.access(0x0000, false).hit);
    EXPECT_FALSE(cache.access(0x0080, false).hit) << "B was evicted";
}

TEST(Cache, DirtyEvictionReportsWriteback)
{
    Cache cache(smallCache());
    cache.access(0x0000, true);             // dirty line A
    cache.access(0x0080, false);
    // Force eviction of A (LRU after touching B twice).
    cache.access(0x0080, false);
    const CacheAccess evict = cache.access(0x0100, false);
    EXPECT_FALSE(evict.hit);
    EXPECT_TRUE(evict.writeback);
    EXPECT_EQ(evict.victimLine, 0x0000u);
    EXPECT_EQ(cache.writebacks(), 1u);
}

TEST(Cache, WriteThroughNeverWritesBack)
{
    CacheConfig config = smallCache();
    config.writeThrough = true;
    Cache cache(config);
    cache.access(0x0000, true);
    cache.access(0x0080, true);
    cache.access(0x0100, true);
    cache.access(0x0180, true);
    cache.access(0x0200, true);
    EXPECT_EQ(cache.writebacks(), 0u);
}

TEST(Cache, InvalidateColdStartsButKeepsCounters)
{
    Cache cache(smallCache());
    cache.access(0x0000, false);
    cache.access(0x0000, false);
    cache.invalidate();
    EXPECT_FALSE(cache.access(0x0000, false).hit);
    EXPECT_EQ(cache.accesses(), 3u) << "counters survive invalidate";
}

TEST(Cache, SharedRegistryExposesDottedCounters)
{
    obs::StatsRegistry registry;
    Cache cache(smallCache(), registry.group("gpu").group("l2"));
    cache.access(0x0000, false);
    const obs::Stat *misses = registry.find("gpu.l2.misses");
    ASSERT_NE(misses, nullptr);
    EXPECT_DOUBLE_EQ(misses->value(), 1.0);
}

TEST(Cache, SharedStatsGroupAggregatesAcrossCaches)
{
    // Aggregation contract (see cache.hh): N caches bound to the SAME
    // stats group SUM into the shared counters — registration is
    // idempotent and every cache increments the one registered Stat.
    // The timing simulator relies on this for its per-core texture
    // caches, which all report as gpu.texture_cache.*.
    obs::StatsRegistry registry;
    obs::StatsGroup group = registry.group("gpu").group("tex");
    Cache a(smallCache(), group);
    Cache b(smallCache(), group);
    Cache c(smallCache(), group);

    a.access(0x0000, false); // miss
    a.access(0x0000, false); // hit
    b.access(0x0000, false); // miss (separate array state)
    c.access(0x0000, false); // miss
    c.access(0x0040, false); // miss

    const obs::Stat *accesses = registry.find("gpu.tex.accesses");
    const obs::Stat *hits = registry.find("gpu.tex.hits");
    const obs::Stat *misses = registry.find("gpu.tex.misses");
    ASSERT_NE(accesses, nullptr);
    ASSERT_NE(hits, nullptr);
    ASSERT_NE(misses, nullptr);
    EXPECT_DOUBLE_EQ(accesses->value(), 5.0)
        << "shared counters must sum, not overwrite";
    EXPECT_DOUBLE_EQ(hits->value(), 1.0);
    EXPECT_DOUBLE_EQ(misses->value(), 4.0);

    // The accessors read the shared Stat too, so on a shared-group
    // cache they report the GROUP aggregate, not per-cache traffic.
    EXPECT_EQ(a.accesses(), 5u);
    EXPECT_EQ(b.accesses(), 5u);
    EXPECT_EQ(c.misses(), 4u);
}

TEST(Dram, RowHitIsFasterThanRowMiss)
{
    DramConfig config;
    Dram dram(config);
    const sim::Tick first = dram.access(0, 0x0000, false);
    const sim::Tick second = dram.access(0, 0x0040, false);
    // Second access hits the open row but still waits for the bank
    // and channel, so it completes after the first.
    EXPECT_GT(second, first);
    // A fresh bank with a closed row pays the full row-miss latency.
    EXPECT_GE(first, config.rowMissLatency);
    EXPECT_EQ(dram.transactions(), 2u);
    EXPECT_EQ(dram.bytesTransferred(), 2u * config.lineBytes);
}

TEST(Dram, DrainClosesRows)
{
    DramConfig config;
    Dram dram(config);
    const sim::Tick warm = dram.access(0, 0x0000, false);
    dram.drain();
    const sim::Tick cold = dram.access(0, 0x0040, false);
    // After drain the row must be re-activated: same cost as cold.
    EXPECT_EQ(cold, warm);
}

TEST(Dram, ChannelBandwidthSerializesBursts)
{
    DramConfig config;
    config.banks = 2;
    Dram dram(config);
    // Different banks, issued at the same tick: the shared channel
    // must serialize the two line transfers.
    const sim::Tick a = dram.access(0, 0x0000, false);
    const sim::Tick b = dram.access(0, config.rowBytes, false);
    const sim::Tick burst = config.lineBytes / config.bytesPerCycle;
    EXPECT_GE(b, a + burst);
}

TEST(Cache, AccessRangeMatchesPerLineLoop)
{
    // The batched multi-line walk must be observationally identical
    // to the per-line loop it replaced: same hits and counters, and
    // the same tags, MRU and LRU state afterwards, as a probe sequence
    // run on both caches shows — on aligned, unaligned and multi-set
    // spans.
    const struct
    {
        sim::Addr addr;
        std::uint64_t bytes;
    } spans[] = {
        {0x0000, 64},   // one aligned line
        {0x1010, 32},   // within one line, unaligned
        {0x2030, 200},  // straddles 4 lines, unaligned start
        {0x0000, 1024}, // 16 lines, wraps every set
    };
    const CacheConfig config = smallCache();
    const std::uint64_t lineBytes = config.lineBytes;
    const std::uint64_t sets =
        config.sizeBytes / (lineBytes * config.ways);
    // A multiple of `sets` lines above every span: line
    // conflictBase + s maps to set s and is never in a span.
    const std::uint64_t conflictBase = 0x8000 / lineBytes;
    for (const auto &span : spans) {
        Cache batched(config);
        Cache looped(config);
        // Warm both identically so the spans see mixed hits/misses.
        batched.access(0x2040, false);
        looped.access(0x2040, false);

        const Cache::RangeResult r =
            batched.accessRange(span.addr, span.bytes, false);

        std::uint32_t lines = 0, hits = 0;
        const std::uint64_t first = span.addr / lineBytes;
        const std::uint64_t last =
            (span.addr + span.bytes - 1) / lineBytes;
        for (std::uint64_t l = first; l <= last; ++l) {
            ++lines;
            hits += looped.access(l * lineBytes, false).hit ? 1 : 0;
        }
        EXPECT_EQ(r.lines, lines);
        EXPECT_EQ(r.hits, hits);

        // Re-probe the span (tags), then one conflicting line per
        // touched set (it evicts that set's LRU way, so MRU/LRU order
        // shows), then the span again (which way survived).
        std::vector<std::uint64_t> probes;
        for (std::uint64_t l = first; l <= last; ++l)
            probes.push_back(l);
        for (std::uint64_t s = 0; s < std::min(sets, last - first + 1);
             ++s)
            probes.push_back(conflictBase + (first + s) % sets);
        for (std::uint64_t l = first; l <= last; ++l)
            probes.push_back(l);
        for (std::size_t i = 0; i < probes.size(); ++i)
            EXPECT_EQ(batched.access(probes[i] * lineBytes, false).hit,
                      looped.access(probes[i] * lineBytes, false).hit)
                << "span 0x" << std::hex << span.addr << " probe "
                << std::dec << i << " (line " << probes[i] << ")";
        EXPECT_EQ(batched.accesses(), looped.accesses());
        EXPECT_EQ(batched.hits(), looped.hits());
        EXPECT_EQ(batched.misses(), looped.misses());
        EXPECT_EQ(batched.writebacks(), looped.writebacks());
    }
}
