/**
 * @file
 * Strict numeric settings. A setting is a number with nothing after it
 * that obeys its rule. The environment reader reports any other value
 * with a warning naming the variable and the value, once per process
 * for each (variable, value) pair, and reads it as unset.
 */

#ifndef MSIM_UTIL_ENV_HH
#define MSIM_UTIL_ENV_HH

#include <optional>

namespace msim::util
{

/** The values a numeric setting accepts. */
enum class NumberRule {
    NonNegative, // finite and >= 0
    Whole,       // a whole number >= 0, below 2^64
    Count,       // a whole number >= 1, below 2^64
    Positive,    // finite and > 0
};

/** @p text as a number obeying @p rule, or nothing. */
std::optional<double> parseNumber(const char *text, NumberRule rule);

/** What @p rule accepts, in words ("a finite number above 0"). */
const char *describe(NumberRule rule);

/**
 * The environment variable @p name as a number obeying @p rule, or
 * @p unset when the variable is unset or empty. Any other value warns
 * (naming the variable and the value, and ending in @p instead, what
 * happens now) and reads as @p unset.
 */
double numberFromEnv(const char *name, NumberRule rule, double unset,
                     const char *instead);

} // namespace msim::util

#endif // MSIM_UTIL_ENV_HH
