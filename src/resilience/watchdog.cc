#include "resilience/watchdog.hh"

#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "sim/logging.hh"

namespace msim::resilience
{

namespace
{

/**
 * Every reader (each ground-truth pass, served worker and scheduler)
 * parses the budgets, so report a malformed value once per process
 * for each (variable, value) pair, not once per reader.
 */
bool
firstSighting(const char *name, const char *value)
{
    static std::mutex mutex;
    static std::set<std::pair<std::string, std::string>> seen;
    std::lock_guard<std::mutex> lock(mutex);
    return seen.emplace(name, value).second;
}

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
    if (firstSighting(name, env))
        sim::warn("%s='%s' ignored: not a finite, non-negative %s; "
                  "the budget stays off",
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
