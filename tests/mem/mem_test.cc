#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "mem/mshr.hh"
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

// ---------------------------------------------------------------------
// MSHR miss-merging (mem/mshr.hh): the stamp protocol that keeps the
// default mode bit-identical, the texture-FIFO slot recycling, and the
// merge-cap / full-file semantics.

TEST(MshrConfig, ParsesGpgpusimTextureSyntax)
{
    auto f = MshrConfig::parse("F:128:4");
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(f->policy, MshrConfig::Policy::TexFifo);
    EXPECT_EQ(f->entries, 128u);
    EXPECT_EQ(f->maxMerges, 4u);
    EXPECT_TRUE(f->enabled());
    EXPECT_EQ(f->toString(), "F:128:4");

    auto a = MshrConfig::parse("A:16:0");
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a->policy, MshrConfig::Policy::Assoc);
    EXPECT_EQ(a->maxMerges, 0u) << "0 = uncapped merges";

    auto off = MshrConfig::parse("F:0:4");
    ASSERT_TRUE(off.ok());
    EXPECT_FALSE(off->enabled()) << "<entries>=0 disables the file";

    EXPECT_FALSE(MshrConfig::parse("").ok());
    EXPECT_FALSE(MshrConfig::parse("X:128:4").ok());
    EXPECT_FALSE(MshrConfig::parse("F:128").ok());
    EXPECT_FALSE(MshrConfig::parse("F:nope:4").ok());
}

TEST(Mshr, SameLineMergesCollapseToOneWalk)
{
    MshrFile mshr(MshrConfig{MshrConfig::Policy::TexFifo, 8, 0});
    // One completed walk of line 7 at downstream stamp 42 ...
    mshr.noteWalk(7, 42);
    // ... absorbs any number of repeat requesters at that stamp.
    EXPECT_TRUE(mshr.tryMerge(7, 42));
    EXPECT_TRUE(mshr.tryMerge(7, 42));
    EXPECT_TRUE(mshr.tryMerge(7, 42));
    EXPECT_EQ(mshr.allocations(), 1u);
    EXPECT_EQ(mshr.merges(), 3u);
    // A different line or a moved stamp must fall through to the
    // real probe: the recorded walk no longer proves anything.
    EXPECT_FALSE(mshr.tryMerge(6, 42));
    EXPECT_FALSE(mshr.tryMerge(7, 43)) << "stale stamp must refuse";
}

TEST(Mshr, MergeCapBoundsRepeatRequesters)
{
    MshrFile mshr(MshrConfig{MshrConfig::Policy::TexFifo, 8, 2});
    mshr.noteWalk(3, 1);
    EXPECT_TRUE(mshr.tryMerge(3, 1));
    EXPECT_TRUE(mshr.tryMerge(3, 1));
    EXPECT_FALSE(mshr.tryMerge(3, 1)) << "merge credit exhausted";
    // A fresh walk of the same line re-arms the credit.
    mshr.noteWalk(3, 1);
    EXPECT_TRUE(mshr.tryMerge(3, 1));
}

TEST(Mshr, TexFifoRecyclesConflictingSlotAssocStalls)
{
    // 4 slots, direct-mapped by line: lines 1 and 5 collide.
    MshrFile fifo(MshrConfig{MshrConfig::Policy::TexFifo, 4, 0});
    fifo.noteWalk(1, 9);
    fifo.noteWalk(5, 9); // texture FIFO: recycle the live slot
    EXPECT_EQ(fifo.evictions(), 1u);
    EXPECT_EQ(fifo.stalls(), 0u);
    EXPECT_FALSE(fifo.tryMerge(1, 9)) << "line 1 was recycled";
    EXPECT_TRUE(fifo.tryMerge(5, 9));

    MshrFile assoc(MshrConfig{MshrConfig::Policy::Assoc, 4, 0});
    assoc.noteWalk(1, 9);
    assoc.noteWalk(5, 9); // assoc: refuse while the entry is live
    EXPECT_EQ(assoc.stalls(), 1u);
    EXPECT_EQ(assoc.evictions(), 0u);
    EXPECT_TRUE(assoc.tryMerge(1, 9)) << "resident entry survives";
    EXPECT_FALSE(assoc.tryMerge(5, 9));
    // Once the resident entry goes stale (stamp moved on), the same
    // conflicting allocation succeeds.
    assoc.noteWalk(5, 10);
    EXPECT_TRUE(assoc.tryMerge(5, 10));
}

TEST(Mshr, EntriesKeepTextureFifoAllocationOrder)
{
    MshrFile mshr(MshrConfig{MshrConfig::Policy::TexFifo, 4, 0});
    mshr.noteWalk(0, 1);
    mshr.noteWalk(1, 1);
    mshr.noteWalk(2, 1);
    // seq must record strict allocation order across slots — the
    // texture-FIFO age that slot recycling is keyed on.
    std::uint64_t lastSeq = 0;
    for (std::uint32_t line = 0; line < 3; ++line) {
        const MshrFile::SlotView v = mshr.slot(line);
        ASSERT_TRUE(v.valid);
        EXPECT_EQ(v.line, line);
        if (line > 0) {
            EXPECT_GT(v.seq, lastSeq);
        }
        lastSeq = v.seq;
    }
    // reset() drops entries (cold start) but keeps counters.
    mshr.reset();
    EXPECT_FALSE(mshr.slot(0).valid);
    EXPECT_EQ(mshr.allocations(), 3u);
}

TEST(Mshr, StampEqualityProvesMruReadHit)
{
    // The full protocol against a real 2-way cache: after a walk
    // fills a line, a repeat probe at an unchanged stamp would be an
    // MRU-way read hit (no state change); any mutation in between
    // moves the stamp and disables the merge.
    Cache cache(smallCache());
    ASSERT_TRUE(cache.readHitIdempotent());
    MshrFile mshr(MshrConfig{MshrConfig::Policy::TexFifo, 8, 0});

    cache.access(0x0000, false); // miss + fill
    const std::uint64_t line = cache.lineOf(0x0000);
    mshr.noteWalk(line, cache.stateTick());

    ASSERT_TRUE(mshr.tryMerge(line, cache.stateTick()));
    // The merged probe books the hit the real access would have.
    const std::uint64_t stampBefore = cache.stateTick();
    cache.noteMergedHit();
    EXPECT_EQ(cache.stateTick(), stampBefore)
        << "a merged hit must not move the stamp";
    // Cross-check against the real thing: an actual MRU read hit
    // leaves the stamp unchanged too, so the two are identical.
    cache.access(0x0000, false);
    EXPECT_EQ(cache.stateTick(), stampBefore);

    // Any real mutation (a fill of another set) moves the stamp and
    // the recorded walk stops matching.
    cache.access(0x0040, false);
    EXPECT_FALSE(mshr.tryMerge(line, cache.stateTick()));
}

TEST(Cache, AccessRangeMatchesPerLineLoop)
{
    // The batched multi-line walk must be observationally identical
    // to the per-line loop it replaced: same hits, same counters,
    // same state stamp — on aligned, unaligned and multi-set spans.
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
    for (const auto &span : spans) {
        Cache batched(smallCache());
        Cache looped(smallCache());
        // Warm both identically so the spans see mixed hits/misses.
        batched.access(0x2040, false);
        looped.access(0x2040, false);

        const Cache::RangeResult r =
            batched.accessRange(span.addr, span.bytes, false);

        std::uint32_t lines = 0, hits = 0;
        const std::uint64_t first = looped.lineOf(span.addr);
        const std::uint64_t last =
            looped.lineOf(span.addr + span.bytes - 1);
        for (std::uint64_t l = first; l <= last; ++l) {
            ++lines;
            hits += looped.access(l * 64, false).hit ? 1 : 0;
        }
        EXPECT_EQ(r.lines, lines);
        EXPECT_EQ(r.hits, hits);
        EXPECT_EQ(batched.accesses(), looped.accesses());
        EXPECT_EQ(batched.hits(), looped.hits());
        EXPECT_EQ(batched.misses(), looped.misses());
        EXPECT_EQ(batched.stateTick(), looped.stateTick());
    }
}
