/**
 * @file
 * Host-cost attribution: where do the simulator's *host* seconds go?
 *
 * PR 5 could only assert that the residual hot-path wall time lives
 * in the texture L1→L2→DRAM walk by hand-running interleaved A/B
 * timings. This layer makes that claim measurable in-tree: scoped,
 * thread-local attribution of wall time to a small fixed set of host
 * domains (geometry, rasterization, shading, the simulated-memory
 * walk, I/O, analysis), published as `obs.host.<domain>.seconds` /
 * `.entries` stats and reported by `megsim-cli campaign --attrib`,
 * which also records them in the run ledger's `attrib` event.
 *
 * Accounting is *exclusive*: entering a nested scope stops the clock
 * on the enclosing domain and restarts it on exit, so the per-domain
 * seconds sum to the covered wall time instead of double-counting.
 * Each thread accumulates into its own thread-local buckets;
 * flushHostAttrib() folds them into processRegistry() — which honors
 * the worker-shard override, so per-worker flushes merge back in
 * worker-index order like every other stat.
 *
 * Attribution is opt-in (MEGSIM_ATTRIB=1 / setHostAttribEnabled):
 * the scope constructor costs one predictable branch when disabled,
 * and two clock reads plus bucket arithmetic when enabled. Host
 * attribution never touches simulated counters, so simulated stats
 * stay bit-identical whether it is on or off.
 */

#ifndef MSIM_OBS_ATTRIB_HH
#define MSIM_OBS_ATTRIB_HH

#include <cstdint>
#include <cstddef>

namespace msim::obs
{

double wallSeconds(); // obs/profile.hh

/** Fixed host-cost domains. Order is the report order. */
enum class HostDomain : std::uint8_t
{
    Other = 0, // covered time not claimed by a nested scope
    Load,      // scene/cache/checkpoint I/O and decode
    Geometry,  // vertex fetch/shade, assembly, binning
    Raster,    // tile walk, coverage, depth test
    Shade,     // fragment shading (minus its memory walk)
    MemWalk,   // simulated L1→L2→DRAM access chain
    Analyze,   // feature build, clustering, estimation
    kCount
};

constexpr std::size_t kHostDomainCount =
    static_cast<std::size_t>(HostDomain::kCount);

/** Stable lower-case name used in stats and reports ("memwalk"). */
const char *hostDomainName(HostDomain d);

/** Global enable flag; written only during single-threaded setup
 *  (MEGSIM_ATTRIB env, CLI flag, tests). */
bool hostAttribEnabled();
void setHostAttribEnabled(bool on);

namespace detail
{

struct AttribBuckets
{
    double seconds[kHostDomainCount] = {};
    std::uint64_t entries[kHostDomainCount] = {};
    HostDomain current = HostDomain::Other;
    double stamp = 0.0; // wallSeconds() when `current` last started
    bool open = false;  // inside an AttribRoot window
};

AttribBuckets &tlsBuckets();

} // namespace detail

/**
 * Root attribution window. Opens the thread's accounting interval:
 * time inside the window not claimed by a nested AttribScope is
 * charged to HostDomain::Other, so domain seconds always sum to the
 * window's wall time (this is what makes ≥90% coverage checkable).
 * Destruction flushes the thread's buckets into processRegistry().
 */
class AttribRoot
{
  public:
    AttribRoot();
    ~AttribRoot();
    AttribRoot(const AttribRoot &) = delete;
    AttribRoot &operator=(const AttribRoot &) = delete;

  private:
    bool active_ = false;
};

/**
 * Exclusive-time domain scope. Charges elapsed time to the enclosing
 * domain on entry, runs as @p d, and restores the enclosing domain on
 * exit. Free outside an AttribRoot window or when attribution is off.
 */
class AttribScope
{
  public:
    explicit AttribScope(HostDomain d)
    {
        if (!hostAttribEnabled()) [[likely]]
            return;
        detail::AttribBuckets &b = detail::tlsBuckets();
        if (!b.open)
            return;
        const double now = wallSeconds();
        const std::size_t prev =
            static_cast<std::size_t>(b.current);
        b.seconds[prev] += now - b.stamp;
        previous_ = b.current;
        b.current = d;
        b.stamp = now;
        ++b.entries[static_cast<std::size_t>(d)];
        armed_ = true;
    }
    ~AttribScope()
    {
        if (!armed_)
            return;
        detail::AttribBuckets &b = detail::tlsBuckets();
        const double now = wallSeconds();
        b.seconds[static_cast<std::size_t>(b.current)] +=
            now - b.stamp;
        b.current = previous_;
        b.stamp = now;
    }
    AttribScope(const AttribScope &) = delete;
    AttribScope &operator=(const AttribScope &) = delete;

  private:
    HostDomain previous_ = HostDomain::Other;
    bool armed_ = false;
};

/**
 * Fold the calling thread's buckets into processRegistry() as
 * `obs.host.<domain>.seconds` / `obs.host.<domain>.entries` scalars
 * and reset them. Called by AttribRoot's destructor; safe to call
 * directly (e.g. at the end of a worker share before shard merge).
 */
void flushHostAttrib();

/**
 * The obs.host.* counters read back from processRegistry() after the
 * AttribRoot windows closed (all worker shards merged). coverage() is
 * the share of attributed time a *named* domain claims — the ≥90%
 * acceptance number; Other is the window time nothing accounted for.
 */
struct HostAttribSnapshot
{
    double seconds[kHostDomainCount] = {};
    std::uint64_t entries[kHostDomainCount] = {};

    double totalSeconds() const;
    /** (total - other) / total, or 0 with nothing attributed. */
    double coverage() const;
};

HostAttribSnapshot readHostAttrib();

} // namespace msim::obs

#endif // MSIM_OBS_ATTRIB_HH
