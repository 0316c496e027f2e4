#include "util/env.hh"

#include <cmath>
#include <cstdlib>
#include <mutex>
#include <set>
#include <string>
#include <utility>

#include "sim/logging.hh"

namespace msim::util
{

namespace
{

/**
 * Settings have many readers (each ground-truth pass, served worker,
 * scheduler and scene loader), so report a malformed value once per
 * process for each (variable, value) pair, not once per reader.
 */
bool
firstSighting(const char *name, const char *value)
{
    static std::mutex mutex;
    static std::set<std::pair<std::string, std::string>> seen;
    std::lock_guard<std::mutex> lock(mutex);
    return seen.emplace(name, value).second;
}

} // namespace

const char *
describe(NumberRule rule)
{
    switch (rule) {
      case NumberRule::NonNegative: return "a finite, non-negative number";
      case NumberRule::Whole: return "a non-negative whole number";
      case NumberRule::Count: return "a whole number of at least 1";
      case NumberRule::Positive: return "a finite number above 0";
    }
    return "a number";
}

std::optional<double>
parseNumber(const char *text, NumberRule rule)
{
    if (!text)
        return std::nullopt;
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || !std::isfinite(value))
        return std::nullopt;
    bool ok = false;
    switch (rule) {
      case NumberRule::NonNegative:
        ok = value >= 0.0;
        break;
      case NumberRule::Whole:
        ok = value >= 0.0 && value == std::floor(value) && value < 0x1p64;
        break;
      case NumberRule::Count:
        ok = value >= 1.0 && value == std::floor(value) && value < 0x1p64;
        break;
      case NumberRule::Positive:
        ok = value > 0.0;
        break;
    }
    if (!ok)
        return std::nullopt;
    return value;
}

double
numberFromEnv(const char *name, NumberRule rule, double unset,
              const char *instead)
{
    const char *env = std::getenv(name);
    if (!env || env[0] == '\0')
        return unset;
    if (const std::optional<double> value = parseNumber(env, rule))
        return *value;
    if (firstSighting(name, env))
        sim::warn("%s='%s' ignored: not %s; %s", name, env,
                  describe(rule), instead);
    return unset;
}

} // namespace msim::util
