#include "mem/cache.hh"

#include "obs/attrib.hh"
#include "sim/logging.hh"

namespace msim::mem
{

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v && (v & (v - 1)) == 0;
}

std::uint32_t
log2u(std::uint64_t v)
{
    std::uint32_t n = 0;
    while (v >>= 1)
        ++n;
    return n;
}

} // namespace

Cache::Cache(const CacheConfig &config)
    : config_(config),
      ownRegistry_(std::make_unique<obs::StatsRegistry>())
{
    const std::uint64_t numLines =
        config_.sizeBytes / config_.lineBytes;
    if (numLines == 0 || config_.ways == 0)
        sim::fatal("cache of %llu bytes / %u B lines is empty",
                   static_cast<unsigned long long>(config_.sizeBytes),
                   config_.lineBytes);
    numSets_ = static_cast<std::size_t>(
        numLines / config_.ways ? numLines / config_.ways : 1);
    lines_.resize(numSets_ * config_.ways);
    lru_.assign(lines_.size(), 0);
    mru_.assign(numSets_, 0);
    linePow2_ = isPow2(config_.lineBytes);
    lineShift_ = linePow2_ ? log2u(config_.lineBytes) : 0;
    setsPow2_ = isPow2(numSets_);
    setMask_ = setsPow2_ ? numSets_ - 1 : 0;
    ways2_ = config_.ways == 2 && lines_.size() >= 2;
    bindStats(ownRegistry_->group("cache"));
}

Cache::Cache(const CacheConfig &config, obs::StatsGroup stats)
    : Cache(config)
{
    ownRegistry_.reset();
    accesses_ = hits_ = misses_ = writebacks_ = nullptr;
    bindStats(stats);
}

void
Cache::bindStats(obs::StatsGroup stats)
{
    accesses_ = &stats.scalar("accesses", "total lookups");
    hits_ = &stats.scalar("hits", "lookups that hit");
    misses_ = &stats.scalar("misses", "lookups that missed");
    writebacks_ = &stats.scalar("writebacks",
                                "dirty lines evicted");
    obs::Scalar *hits = hits_, *accesses = accesses_;
    stats.formula(
        "miss_rate",
        [hits, accesses] {
            const double a = accesses->value();
            return a > 0.0 ? 1.0 - hits->value() / a : 0.0;
        },
        "misses / accesses");
}

CacheAccess
Cache::accessMiss(Line *ways, std::size_t set, std::uint64_t line,
                  bool write)
{
    // Miss: fill over the LRU way.
    ++pendMisses_;
    Line *victim;
    if (ways2_) {
        // Same choice the lru scan below would make: prefer an
        // invalid way (way 1 when both are invalid, as the scan's
        // tie-break does), else the non-MRU way, which for 2-way is
        // exactly the LRU way.
        victim = ways[1].gen != gen_  ? &ways[1]
                 : ways[0].gen != gen_ ? &ways[0]
                                       : &ways[1u - mru_[set]];
    } else {
        const std::size_t base = set * config_.ways;
        victim = &ways[0];
        for (std::uint32_t w = 1; w < config_.ways; ++w)
            if (ways[w].gen != gen_ ||
                (victim->gen == gen_ &&
                 lru_[base + w] < lru_[base + (victim - ways)]))
                victim = &ways[w];
        lru_[base + (victim - ways)] = tick_;
    }

    CacheAccess result{false, false, 0};
    if (victim->gen == gen_ && victim->dirty) {
        result.writeback = true;
        result.victimLine = victim->tag * config_.lineBytes;
        ++pendWritebacks_;
    }
    victim->gen = gen_;
    victim->tag = line;
    victim->dirty = write && !config_.writeThrough;
    mru_[set] = static_cast<std::uint32_t>(victim - ways);
    return result;
}

CacheAccess
Cache::access(sim::Addr addr, bool write)
{
    // Standalone entry point (IMR model, tests): attribute the walk
    // here, since these callers never pass through the simulator's
    // memAccess scope. accessDeferred stays scope-free — in the hot
    // loop the enclosing chain already carries the MemWalk scope.
    obs::AttribScope memScope(obs::HostDomain::MemWalk);
    const CacheAccess result = accessDeferred(addr, write);
    flushStats();
    return result;
}

Cache::RangeResult
Cache::accessRange(sim::Addr addr, std::uint64_t bytes, bool write)
{
    obs::AttribScope memScope(obs::HostDomain::MemWalk);
    RangeResult r;
    if (bytes == 0)
        return r;
    const std::uint64_t lb = config_.lineBytes;
    const std::uint64_t first =
        linePow2_ ? addr >> lineShift_ : addr / lb;
    const std::uint64_t last = linePow2_
                                   ? (addr + bytes - 1) >> lineShift_
                                   : (addr + bytes - 1) / lb;
    for (std::uint64_t line = first; line <= last; ++line) {
        ++r.lines;
        if (accessDeferred(line * lb, write).hit)
            ++r.hits;
    }
    return r;
}

void
Cache::flushStats()
{
    if (pendAccesses_) {
        *accesses_ += static_cast<double>(pendAccesses_);
        pendAccesses_ = 0;
    }
    if (pendHits_) {
        *hits_ += static_cast<double>(pendHits_);
        pendHits_ = 0;
    }
    if (pendMisses_) {
        *misses_ += static_cast<double>(pendMisses_);
        pendMisses_ = 0;
    }
    if (pendWritebacks_) {
        *writebacks_ += static_cast<double>(pendWritebacks_);
        pendWritebacks_ = 0;
    }
}

void
Cache::invalidate()
{
    // O(1) cold start: lines are live only while their gen matches,
    // so bumping gen_ invalidates everything at once. On the (once
    // per 2^32 invalidates) wrap, really clear so no surviving line
    // can alias a recycled generation.
    if (++gen_ == 0) {
        for (Line &line : lines_)
            line = Line{};
        for (std::uint64_t &l : lru_)
            l = 0;
        gen_ = 1;
    }
}

} // namespace msim::mem
