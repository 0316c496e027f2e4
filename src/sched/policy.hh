/**
 * @file
 * The scheduling discipline: which admitted request gets the next idle
 * worker.
 *
 * The scheduler reduces each in-flight request to a Candidate — its
 * arrival order, remaining shard count, whether it has a shard
 * eligible to dispatch right now, and its tenant's virtual time — and
 * pickNext() chooses among them by weighted fair queueing over
 * tenants: among dispatchable requests, the one whose tenant has
 * consumed the least virtual time (each dispatch charges 1/weight)
 * goes first, arrival order breaking ties. Monotone virtual time
 * bounds any tenant's wait by the shard service time of the others —
 * no starvation. With one request in flight it dispatches that
 * request's next eligible shard, which is strict arrival order.
 */

#ifndef MSIM_SCHED_POLICY_HH
#define MSIM_SCHED_POLICY_HH

#include <cstddef>
#include <vector>

namespace msim::sched
{

/** One in-flight request as the discipline sees it. */
struct Candidate
{
    /** Admission order (monotone request id). */
    std::size_t arrival = 0;
    /** Shards not yet Done/Quarantined/Cancelled. */
    std::size_t remaining = 0;
    /** A pending shard is eligible to dispatch right now (not all
     *  backing off / already running). */
    bool eligible = false;
    /** The owning tenant's consumed virtual time. */
    double tenantVirtual = 0.0;
};

inline constexpr std::size_t kNoPick = static_cast<std::size_t>(-1);

/**
 * Index of the candidate to dispatch next, or kNoPick when no
 * candidate has an eligible shard.
 */
std::size_t pickNext(const std::vector<Candidate> &candidates);

} // namespace msim::sched

#endif // MSIM_SCHED_POLICY_HH
