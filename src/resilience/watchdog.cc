#include "resilience/watchdog.hh"

#include "util/env.hh"

namespace msim::resilience
{

WatchdogConfig
WatchdogConfig::fromEnv()
{
    WatchdogConfig config;
    const char *off = "the budget stays off";
    config.wallBudgetSeconds =
        util::numberFromEnv("MEGSIM_FRAME_BUDGET_MS",
                            util::NumberRule::NonNegative, 0.0, off) /
        1000.0;
    config.cycleBudget = static_cast<std::uint64_t>(
        util::numberFromEnv("MEGSIM_FRAME_CYCLE_BUDGET",
                            util::NumberRule::Whole, 0.0, off));
    return config;
}

} // namespace msim::resilience
