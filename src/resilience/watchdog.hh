/**
 * @file
 * Per-frame simulation budgets, checked by megsim::simulateGuarded()
 * for both ground-truth producers: the in-process pass
 * (megsim::GroundTruthPass) and the served worker's shard loop.
 */

#ifndef MSIM_RESILIENCE_WATCHDOG_HH
#define MSIM_RESILIENCE_WATCHDOG_HH

#include <cstdint>

namespace msim::resilience
{

/** Per-frame simulation budgets; 0 disables a check. */
struct WatchdogConfig
{
    double wallBudgetSeconds = 0.0;
    std::uint64_t cycleBudget = 0;

    /**
     * MEGSIM_FRAME_BUDGET_MS caps per-frame wall time,
     * MEGSIM_FRAME_CYCLE_BUDGET caps simulated cycles. Each must be a
     * finite, non-negative number with nothing after it (the cycle
     * budget a whole one below 2^64); any other value is reported
     * with a warning naming the variable, once per process for each
     * value, and leaves that budget off.
     */
    static WatchdogConfig fromEnv();
};

} // namespace msim::resilience

#endif // MSIM_RESILIENCE_WATCHDOG_HH
