/**
 * @file
 * Set-associative, latency-annotated functional cache (LRU). Hit/miss
 * state updates synchronously; the caller charges latencies and sends
 * misses down the hierarchy. All counters live in an obs registry —
 * either one supplied by the owning simulator (so `l2.misses` shows up
 * in its stats tree and resets per frame) or a private one for
 * standalone use.
 *
 * ## Shared stats-group aggregation contract
 *
 * Any number of caches may be constructed against the SAME StatsGroup
 * (the timing simulator's per-core texture caches all bind to
 * `gpu.texture_cache`). Registration is idempotent — every cache
 * resolves to the one registered Scalar per counter — so N caches SUM
 * into the shared counters; they never overwrite each other. The
 * accessor methods read the shared Stat and therefore report the
 * group aggregate on such caches, not per-cache traffic.
 *
 * ## Hot-path counter batching
 *
 * accessDeferred() is access() minus the immediate registry update:
 * counter deltas accumulate in plain integer members and reach the
 * Scalars when flushStats() runs (the timing simulator flushes once
 * per frame, before harvest reads the registry). The accessors fold
 * pending deltas in, so they are always current. access() itself
 * publishes eagerly — code that reads the registry between accesses
 * (tests, the IMR model) keeps working unchanged. The flush adds
 * integer-valued deltas onto integer-valued doubles, which is exact
 * below 2^53, so totals are bit-identical either way.
 */

#ifndef MSIM_MEM_CACHE_HH
#define MSIM_MEM_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/stats.hh"
#include "sim/types.hh"

namespace msim::mem
{

struct CacheConfig
{
    std::uint64_t sizeBytes = 4 * 1024;
    std::uint32_t lineBytes = 64;
    std::uint32_t ways = 2;
    sim::Tick hitLatency = 1;
    std::uint32_t banks = 1;     // parallel banks (L2)
    bool writeThrough = false;
};

struct CacheAccess
{
    bool hit = false;
    bool writeback = false;     // evicted a dirty line
    sim::Addr victimLine = 0;   // line address written back
};

class Cache
{
  public:
    /** Standalone cache with a private stats registry. */
    explicit Cache(const CacheConfig &config);

    /** Cache whose counters live under @p stats in a shared registry. */
    Cache(const CacheConfig &config, obs::StatsGroup stats);

    CacheAccess access(sim::Addr addr, bool write);

    /**
     * Same state transition and counters as access(), but the counter
     * deltas stay pending until flushStats() — the per-access entry
     * point of the simulator hot loop. Inline: this is the single
     * most-called function in a timing run.
     */
    CacheAccess
    accessDeferred(sim::Addr addr, bool write)
    {
        const std::uint64_t line =
            linePow2_ ? addr >> lineShift_ : addr / config_.lineBytes;
        const std::size_t set = static_cast<std::size_t>(
            setsPow2_ ? line & setMask_ : line % numSets_);
        Line *ways = &lines_[set * config_.ways];

        ++pendAccesses_;

        if (ways2_) {
            // Two-way specialization: the LRU way is by construction
            // the non-MRU way (every hit or fill touches exactly one
            // way and marks it MRU), so no lru timestamps are needed
            // at all — a hit is two compares, and the victim on a
            // miss is mru ^ 1. A line is live only while its gen
            // matches gen_ (see invalidate()).
            const std::uint32_t m = mru_[set];
            Line &a = ways[m];
            if (a.gen == gen_ && a.tag == line) {
                if (write)
                    a.dirty = !config_.writeThrough;
                ++pendHits_;
                return CacheAccess{true, false, 0};
            }
            Line &b = ways[m ^ 1u];
            if (b.gen == gen_ && b.tag == line) {
                if (write)
                    b.dirty = !config_.writeThrough;
                mru_[set] = m ^ 1u;
                ++pendHits_;
                return CacheAccess{true, false, 0};
            }
            return accessMiss(ways, set, line, write);
        }

        ++tick_;
        const std::size_t base = set * config_.ways;
        // MRU fast path: tags are unique within a set, so if the last
        // way that hit here matches, no other way can — skip the scan.
        Line &m = ways[mru_[set]];
        if (m.gen == gen_ && m.tag == line) {
            lru_[base + mru_[set]] = tick_;
            if (write)
                m.dirty = !config_.writeThrough;
            ++pendHits_;
            return CacheAccess{true, false, 0};
        }
        // Full hit scan, still inline: only a true miss (fill, victim
        // selection, writeback) leaves the fast path.
        for (std::uint32_t w = 0; w < config_.ways; ++w) {
            Line &l = ways[w];
            if (l.gen == gen_ && l.tag == line) {
                lru_[base + w] = tick_;
                if (write)
                    l.dirty = !config_.writeThrough;
                mru_[set] = w;
                ++pendHits_;
                return CacheAccess{true, false, 0};
            }
        }
        return accessMiss(ways, set, line, write);
    }

    /**
     * Hint that @p addr's set is about to be probed — prefetches the
     * tag lines into the host cache. Pure host-side optimization: no
     * simulated state or counter changes.
     */
    void
    prefetchSet(sim::Addr addr) const
    {
        const std::uint64_t line =
            linePow2_ ? addr >> lineShift_ : addr / config_.lineBytes;
        const std::size_t set = static_cast<std::size_t>(
            setsPow2_ ? line & setMask_ : line % numSets_);
        __builtin_prefetch(&lines_[set * config_.ways]);
    }

    /**
     * Access every line the byte range [addr, addr + bytes) spans, in
     * ascending line order — identical tag/LRU/counter effects to
     * calling access() per line. Returns the number of lines touched
     * and how many hit; writeback side effects are not reported (use
     * access() when the caller must chain victims down the hierarchy).
     */
    struct RangeResult
    {
        std::uint32_t lines = 0;
        std::uint32_t hits = 0;
    };
    RangeResult accessRange(sim::Addr addr, std::uint64_t bytes,
                            bool write);

    /**
     * Invalidate all lines (per-frame cold start). Keeps counters.
     * O(1): bumps the line generation, so every line's gen stops
     * matching; the rare 32-bit wrap falls back to a real clear.
     */
    void invalidate();

    /**
     * Publish pending counter deltas to the registry Scalars. Must run
     * before the registry is read directly (find()/dump()); the
     * accessors below need no flush. Exact: integer-valued adds.
     */
    void flushStats();

    const CacheConfig &config() const { return config_; }

    std::uint64_t accesses() const
    {
        return static_cast<std::uint64_t>(accesses_->value()) +
               pendAccesses_;
    }
    std::uint64_t hits() const
    {
        return static_cast<std::uint64_t>(hits_->value()) + pendHits_;
    }
    std::uint64_t misses() const
    {
        return static_cast<std::uint64_t>(misses_->value()) +
               pendMisses_;
    }
    std::uint64_t writebacks() const
    {
        return static_cast<std::uint64_t>(writebacks_->value()) +
               pendWritebacks_;
    }

  private:
    /**
     * 16 bytes, so a 2-way set is exactly 32 bytes of host memory and
     * a tag probe touches one host cache line. LRU timestamps (only
     * needed for ways > 2) live in the parallel lru_ array.
     */
    struct Line
    {
        std::uint64_t tag = 0;
        std::uint32_t gen = 0;      // live iff gen == cache gen_
        bool dirty = false;
    };

    void bindStats(obs::StatsGroup stats);

    /** Miss path of accessDeferred(): victim selection + fill. */
    CacheAccess accessMiss(Line *ways, std::size_t set,
                           std::uint64_t line, bool write);

    CacheConfig config_;
    std::size_t numSets_;
    std::vector<Line> lines_;   // numSets_ x ways
    std::vector<std::uint64_t> lru_; // per-line LRU stamp (ways > 2)
    std::vector<std::uint32_t> mru_; // per-set most-recent way
    std::uint64_t tick_ = 0;    // LRU clock (generic path only)
    std::uint32_t gen_ = 1;     // current line generation
    bool ways2_ = false;        // 2-way: lru-free hit/victim paths

    // Power-of-two fast paths (division/modulo -> shift/mask).
    std::uint32_t lineShift_ = 0;
    std::uint64_t setMask_ = 0;
    bool linePow2_ = false;
    bool setsPow2_ = false;

    // Deferred counter deltas (see flushStats()).
    std::uint64_t pendAccesses_ = 0;
    std::uint64_t pendHits_ = 0;
    std::uint64_t pendMisses_ = 0;
    std::uint64_t pendWritebacks_ = 0;

    std::unique_ptr<obs::StatsRegistry> ownRegistry_;
    obs::Scalar *accesses_ = nullptr;
    obs::Scalar *hits_ = nullptr;
    obs::Scalar *misses_ = nullptr;
    obs::Scalar *writebacks_ = nullptr;
};

} // namespace msim::mem

#endif // MSIM_MEM_CACHE_HH
