#include "resilience/watchdog.hh"

#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"

namespace msim::resilience
{

namespace
{

/**
 * The value of the environment variable @p name as a finite,
 * non-negative number (a whole one below 2^64 when @p whole), or 0
 * (budget off) when unset, empty or anything else.
 */
double
budgetFromEnv(const char *name, bool whole)
{
    const char *env = std::getenv(name);
    if (!env || env[0] == '\0')
        return 0.0;
    char *end = nullptr;
    const double value = std::strtod(env, &end);
    const bool ok = end != env && *end == '\0' &&
                    std::isfinite(value) && value >= 0.0 &&
                    (!whole || (value == std::floor(value) &&
                                value < 0x1p64));
    if (ok)
        return value;
    sim::warn("%s='%s' ignored: not a finite, non-negative %s; the "
              "budget stays off",
              name, env, whole ? "whole number" : "number");
    return 0.0;
}

} // namespace

WatchdogConfig
WatchdogConfig::fromEnv()
{
    WatchdogConfig config;
    config.wallBudgetSeconds =
        budgetFromEnv("MEGSIM_FRAME_BUDGET_MS", false) / 1000.0;
    config.cycleBudget = static_cast<std::uint64_t>(
        budgetFromEnv("MEGSIM_FRAME_CYCLE_BUDGET", true));
    return config;
}

} // namespace msim::resilience
