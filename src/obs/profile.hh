/**
 * @file
 * The host wall clock and long-run progress reporting.
 *
 * Named host regions are timed by obs::Span (obs/timeline.hh).
 * Heartbeat prints a throughput/ETA line to stderr during
 * multi-minute ground-truth simulations.
 */

#ifndef MSIM_OBS_PROFILE_HH
#define MSIM_OBS_PROFILE_HH

#include <cstddef>
#include <string>

namespace msim::obs
{

/** Monotonic wall-clock seconds. */
double wallSeconds();

class Heartbeat
{
  public:
    /**
     * Progress over @p total units (frames). The clock and the rate's
     * done-count start at the first tick(), not here, so a pass built
     * long before it runs reports its own rate. Prints at most once
     * per @p intervalSeconds, only after the first interval has
     * passed — short runs stay silent.
     */
    Heartbeat(std::size_t total, std::string label,
              double intervalSeconds = 2.0);

    /** Report that @p done units are complete. */
    void tick(std::size_t done);

    /** Final newline if anything was printed. */
    void finish();

    ~Heartbeat() { finish(); }

  private:
    std::size_t total_;
    std::string label_;
    double interval_;
    double start_ = 0.0;
    double lastPrint_ = 0.0;
    std::size_t startDone_ = 0;
    bool started_ = false;
    bool printed_ = false;
};

} // namespace msim::obs

#endif // MSIM_OBS_PROFILE_HH
