/**
 * @file
 * Banked, bandwidth-limited DRAM timing model. Per-bank open-row
 * state gives row-hit/row-miss latencies; a shared channel serializes
 * bursts at the configured bytes/cycle. Counters live in an obs
 * registry like the caches.
 *
 * Counter batching mirrors mem::Cache: accessDeferred() accumulates
 * integer deltas (and the latency sum, in sample order) in plain
 * members; flushStats() publishes them. The latency average is exact
 * only when flushed ONCE onto a freshly reset registry — the timing
 * simulator flushes a frame's samples in one batch, so the folded sum
 * equals the per-sample left fold bit for bit.
 */

#ifndef MSIM_MEM_DRAM_HH
#define MSIM_MEM_DRAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/stats.hh"
#include "sim/types.hh"

namespace msim::mem
{

struct DramConfig
{
    sim::Tick rowHitLatency = 50;
    sim::Tick rowMissLatency = 100;
    std::uint32_t bytesPerCycle = 4;
    std::uint32_t lineBytes = 64;
    std::uint32_t banks = 8;
    std::uint32_t rowBytes = 2048;
};

class Dram
{
  public:
    explicit Dram(const DramConfig &config);
    Dram(const DramConfig &config, obs::StatsGroup stats);

    /**
     * Issue a line transfer at @p now; returns the completion tick
     * after bank availability, row activation and channel bandwidth.
     * Publishes counters eagerly (accessDeferred() is the batched
     * variant).
     */
    sim::Tick access(sim::Tick now, sim::Addr addr, bool write);

    /** access() with the counter updates left pending. Inline: sits
     *  at the bottom of every cache-miss chain in the hot loop. */
    sim::Tick
    accessDeferred(sim::Tick now, sim::Addr addr, bool write)
    {
        const std::uint64_t row =
            rowPow2_ ? addr >> rowShift_ : addr / config_.rowBytes;
        Bank &bank = banks_[banksPow2_ ? row & bankMask_
                                       : row % banks_.size()];

        const bool rowHit = bank.rowValid && bank.openRow == row;
        const sim::Tick latency =
            rowHit ? config_.rowHitLatency : config_.rowMissLatency;
        const sim::Tick burst = burstCycles_;

        sim::Tick start = now > bank.readyAt ? now : bank.readyAt;
        if (channelReadyAt_ > start)
            start = channelReadyAt_;
        const sim::Tick done = start + latency + burst;
        bank.readyAt = done;
        bank.openRow = row;
        bank.rowValid = true;
        channelReadyAt_ = start + burst;

        ++pendTransactions_;
        ++(write ? pendWrites_ : pendReads_);
        pendBytes_ += config_.lineBytes;
        ++(rowHit ? pendRowHits_ : pendRowMisses_);
        pendLatencySum_ += static_cast<double>(done - now);
        ++pendLatencyCount_;
        return done;
    }

    /** Publish pending counter deltas; see the batching note above. */
    void flushStats();

    /** Close all rows and clear timing state (per-frame cold start). */
    void drain();

    const DramConfig &config() const { return config_; }

    std::uint64_t transactions() const
    {
        return static_cast<std::uint64_t>(transactions_->value()) +
               pendTransactions_;
    }
    std::uint64_t bytesTransferred() const
    {
        return static_cast<std::uint64_t>(bytes_->value()) +
               pendBytes_;
    }

  private:
    struct Bank
    {
        sim::Tick readyAt = 0;
        std::uint64_t openRow = 0;
        bool rowValid = false;
    };

    void bindStats(obs::StatsGroup stats);

    DramConfig config_;
    std::vector<Bank> banks_;
    sim::Tick channelReadyAt_ = 0;
    sim::Tick burstCycles_ = 0; // lineBytes / bytesPerCycle, hoisted

    // Power-of-two fast paths.
    std::uint32_t rowShift_ = 0;
    std::uint64_t bankMask_ = 0;
    bool rowPow2_ = false;
    bool banksPow2_ = false;

    // Deferred counter deltas (see flushStats()).
    std::uint64_t pendTransactions_ = 0;
    std::uint64_t pendReads_ = 0;
    std::uint64_t pendWrites_ = 0;
    std::uint64_t pendBytes_ = 0;
    std::uint64_t pendRowHits_ = 0;
    std::uint64_t pendRowMisses_ = 0;
    double pendLatencySum_ = 0.0;    // left fold in sample order
    std::uint64_t pendLatencyCount_ = 0;

    std::unique_ptr<obs::StatsRegistry> ownRegistry_;
    obs::Scalar *transactions_ = nullptr;
    obs::Scalar *reads_ = nullptr;
    obs::Scalar *writes_ = nullptr;
    obs::Scalar *bytes_ = nullptr;
    obs::Scalar *rowHits_ = nullptr;
    obs::Scalar *rowMisses_ = nullptr;
    obs::Average *latency_ = nullptr;
};

} // namespace msim::mem

#endif // MSIM_MEM_DRAM_HH
