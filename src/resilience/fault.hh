/**
 * @file
 * Deterministic fault injection for exercising recovery paths.
 *
 * Faults are described by the MEGSIM_FAULTS environment variable: a
 * `;`-separated list of clauses, each `class[:key=value[,key=value]]`.
 *
 *   class          keys                  effect
 *   io.read        p, seed, path         file reads fail
 *   io.write       p, seed, path         file writes fail
 *   cache.corrupt  p, seed, kind         a checkpoint read refuses
 *                                        the first line of the stats
 *                                        or activity journal
 *   frame.hang     frame | p, seed       a frame blows its watchdog
 *                                        budget (simulated timeout)
 *   run.kill       frame                 raise(SIGKILL) right after
 *                                        frame N is checkpointed
 *   worker.kill    p, seed, shard, times a supervised serve worker
 *                                        dies (SIGKILL) right after
 *                                        its first fresh frame commit
 *                                        of the targeted shard attempt
 *   worker.hang    p, seed, shard, times a supervised serve worker
 *                                        stalls past its shard
 *                                        deadline instead of replying
 *
 * `p` is an independent per-site probability (default 1), `seed` makes
 * the dice deterministic (default 1), `path`/`kind` are substring
 * filters. `shard=K` targets one shard id (default: every shard) and
 * `times=N` fires on attempts 0..N-1 only (default: every attempt), so
 * `worker.kill:shard=2,times=1` kills shard 2's first attempt exactly
 * once and `worker.kill:shard=2` is a permanent poison shard.
 * Injections are counted in the process-wide stats registry under
 * `resilience.faults.*`.
 *
 * Thread safety: the query methods are safe to call from exec::Pool
 * workers (a mutex guards the per-clause RNG state). Frame-targeted
 * clauses (`frame=N`) stay fully deterministic at any thread count.
 * Probabilistic clauses (`p<1`) draw from one shared RNG stream, so
 * WHICH call site receives a given draw depends on scheduling; their
 * injection sequence is reproducible only at MEGSIM_THREADS=1 — with
 * the exception of the worker.* classes, whose dice are a pure hash of
 * (seed, shard, attempt): a freshly forked worker re-rolls the exact
 * same outcome for the same shard attempt, which is what makes the
 * supervision recovery paths deterministic across respawns.
 */

#ifndef MSIM_RESILIENCE_FAULT_HH
#define MSIM_RESILIENCE_FAULT_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "resilience/expected.hh"
#include "sim/random.hh"

namespace msim::resilience
{

enum class FaultClass {
    IoRead,
    IoWrite,
    CacheCorrupt,
    FrameHang,
    RunKill,
    WorkerKill,
    WorkerHang,
};

const char *faultClassName(FaultClass cls);

struct FaultClause
{
    FaultClass cls = FaultClass::IoRead;
    double probability = 1.0;
    std::uint64_t seed = 1;
    std::string match;                  // path/kind substring
    std::uint64_t frame = ~0ULL;        // frame.hang / run.kill target
    std::uint64_t shard = ~0ULL;        // worker.* target (~0 = any)
    std::uint64_t times = ~0ULL;        // worker.* attempt cap (~0 = all)
};

class FaultInjector
{
  public:
    FaultInjector() = default;
    FaultInjector(const FaultInjector &other);
    FaultInjector &operator=(const FaultInjector &other);

    /** Parse a MEGSIM_FAULTS spec; empty spec = no faults. */
    static Expected<FaultInjector> parse(const std::string &spec);

    /** Process-wide injector, parsed from MEGSIM_FAULTS on first use. */
    static FaultInjector &global();

    /**
     * Replace the global injector's spec (tests, tools). Warns and
     * arms nothing when the spec does not parse.
     */
    static void setGlobalSpec(const std::string &spec);

    bool enabled() const { return !armed_.empty(); }
    std::size_t clauseCount() const { return armed_.size(); }

    /** Should a read of @p path fail right now? */
    bool failRead(const std::string &path);

    /** Should a write of @p path fail right now? */
    bool failWrite(const std::string &path);

    /** Should a read of the @p kind journal load as corrupted? */
    bool corruptCache(const std::string &kind);

    /** Should @p frame be treated as hung (watchdog timeout)? */
    bool hangFrame(std::uint64_t frame);

    /** Die (SIGKILL) if a run.kill clause targets @p frame. */
    void maybeKillAfterFrame(std::uint64_t frame);

    /**
     * Should the worker running attempt @p attempt of shard @p shard
     * die right after its first fresh frame commit? A pure function
     * of the clause seed and (shard, attempt): a respawned worker
     * re-rolls the same outcome, so recovery is deterministic.
     */
    bool killWorker(std::uint64_t shard, std::uint64_t attempt);

    /** Same targeting as killWorker(), for a stall past the shard
     *  deadline instead of a death. */
    bool hangWorker(std::uint64_t shard, std::uint64_t attempt);

  private:
    struct Armed
    {
        FaultClause clause;
        sim::Rng rng;

        explicit Armed(const FaultClause &c)
            : clause(c), rng(c.seed)
        {}
    };

    bool roll(Armed &armed, const std::string &subject);
    bool workerRoll(Armed &armed, FaultClass cls, std::uint64_t shard,
                    std::uint64_t attempt);

    // Guards armed_ (RNG draws mutate per-clause state); the injector
    // is queried from pool workers during the ground-truth pass.
    mutable std::mutex mutex_;
    std::vector<Armed> armed_;
};

} // namespace msim::resilience

#endif // MSIM_RESILIENCE_FAULT_HH
