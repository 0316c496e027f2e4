/**
 * @file
 * The evaluated benchmark set (Table II): eight smartphone-class games
 * modeled as procedural GameSpecs, addressable by short alias. The
 * specs are calibrated for shape (2D/3D mix, shader populations, frame
 * counts), not for pixel-exact fidelity to the commercial titles.
 */

#ifndef MSIM_WORKLOADS_WORKLOADS_HH
#define MSIM_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

#include "resilience/expected.hh"
#include "workloads/composer.hh"

namespace msim::workloads
{

/** Aliases of the evaluated benchmarks, in Table II order. */
const std::vector<std::string> &benchmarkNames();

/**
 * The GameSpec behind @p alias. An unknown alias yields an
 * UnknownAlias error whose message lists the valid aliases and the
 * closest match (did-you-mean), ready to print as-is.
 */
resilience::Expected<GameSpec>
findBenchmarkSpec(const std::string &alias);

/** The GameSpec behind @p alias; fatal on unknown alias. */
GameSpec benchmarkSpec(const std::string &alias);

/** buildBenchmark with structured alias errors instead of fatal. */
resilience::Expected<gfx::SceneTrace>
tryBuildBenchmark(const std::string &alias, double scale = 1.0,
                  std::size_t frames = 0);

/**
 * Compose @p alias into a SceneTrace. @p scale thins (<1) or thickens
 * (>1) sprite populations; @p frames truncates the sequence when
 * non-zero (0 keeps the spec's full length). Truncation is
 * prefix-stable: the first N frames match the full run.
 */
gfx::SceneTrace buildBenchmark(const std::string &alias,
                               double scale = 1.0,
                               std::size_t frames = 0);

/**
 * MEGSIM_FRAME_LIMIT, the @p frames of buildBenchmark: a whole number
 * >= 0. Unset, empty or malformed reads as 0; a malformed value warns
 * once per process for each value, naming the variable and the value.
 */
std::size_t frameLimitFromEnv();

/**
 * MEGSIM_SCALE, the @p scale of buildBenchmark: a finite number > 0.
 * Unset, empty or malformed reads as 1.0; a malformed value warns like
 * a malformed frame limit.
 */
double scaleFromEnv();

} // namespace msim::workloads

#endif // MSIM_WORKLOADS_WORKLOADS_HH
