#include "obs/profile.hh"

#include <chrono>
#include <cstdio>

namespace msim::obs
{

double
wallSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Heartbeat::Heartbeat(std::size_t total, std::string label,
                     double intervalSeconds)
    : total_(total), label_(std::move(label)),
      interval_(intervalSeconds)
{}

void
Heartbeat::tick(std::size_t done)
{
    const double now = wallSeconds();
    if (!started_) {
        // A pass may wait in a queue long after it was built; its
        // rate counts from its first completed unit.
        started_ = true;
        start_ = lastPrint_ = now;
        startDone_ = done;
        return;
    }
    if (now - lastPrint_ < interval_ || done <= startDone_)
        return;
    lastPrint_ = now;
    printed_ = true;
    const double rate =
        static_cast<double>(done - startDone_) / (now - start_);
    const double eta =
        static_cast<double>(total_ > done ? total_ - done : 0) / rate;
    std::fprintf(stderr,
                 "\r%s: %zu/%zu frames (%.1f%%), %.1f frames/s, "
                 "ETA %.0fs   ",
                 label_.c_str(), done, total_,
                 total_ ? 100.0 * static_cast<double>(done) /
                              static_cast<double>(total_)
                        : 100.0,
                 rate, eta);
    std::fflush(stderr);
}

void
Heartbeat::finish()
{
    if (printed_) {
        std::fputc('\n', stderr);
        printed_ = false;
    }
}

} // namespace msim::obs
