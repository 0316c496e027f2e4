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

void
PhaseProfiler::add(std::string_view name, double seconds)
{
    for (Phase &p : phases_) {
        if (p.name == name) {
            p.seconds += seconds;
            ++p.entries;
            return;
        }
    }
    phases_.push_back(Phase{std::string(name), seconds, 1});
}

double
PhaseProfiler::totalSeconds() const
{
    double total = 0.0;
    for (const Phase &p : phases_)
        total += p.seconds;
    return total;
}

void
PhaseProfiler::report(std::ostream &os) const
{
    const double total = totalSeconds();
    char line[160];
    std::snprintf(line, sizeof(line), "%-24s %10s %7s %8s\n", "phase",
                  "seconds", "share", "entries");
    os << line;
    for (const Phase &p : phases_) {
        std::snprintf(line, sizeof(line), "%-24s %10.3f %6.1f%% %8llu\n",
                      p.name.c_str(), p.seconds,
                      total > 0.0 ? p.seconds / total * 100.0 : 0.0,
                      static_cast<unsigned long long>(p.entries));
        os << line;
    }
    std::snprintf(line, sizeof(line), "%-24s %10.3f\n", "total", total);
    os << line;
}

void
PhaseProfiler::mergeFrom(const PhaseProfiler &other)
{
    for (const Phase &p : other.phases_) {
        bool found = false;
        for (Phase &mine : phases_) {
            if (mine.name == p.name) {
                mine.seconds += p.seconds;
                mine.entries += p.entries;
                found = true;
                break;
            }
        }
        if (!found)
            phases_.push_back(p);
    }
}

namespace
{

thread_local PhaseProfiler *tlsPhaseOverride = nullptr;

} // namespace

PhaseProfiler &
PhaseProfiler::global()
{
    if (tlsPhaseOverride)
        return *tlsPhaseOverride;
    static PhaseProfiler profiler;
    return profiler;
}

PhaseProfilerOverride::PhaseProfilerOverride(PhaseProfiler &shard)
    : previous_(tlsPhaseOverride)
{
    tlsPhaseOverride = &shard;
}

PhaseProfilerOverride::~PhaseProfilerOverride()
{
    tlsPhaseOverride = previous_;
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
