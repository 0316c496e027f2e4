/**
 * @file
 * Scheduling policies: which admitted request gets the next idle
 * worker.
 *
 * The scheduler reduces each in-flight request to a Candidate — its
 * arrival order, remaining shard count, whether it has a shard
 * eligible to dispatch right now, and its tenant's virtual time — and
 * pickNext() chooses among them:
 *
 *   Fifo              strict arrival order. The oldest unfinished
 *                     request owns the fleet even while all its
 *                     remaining shards are backing off — younger
 *                     requests never jump the queue. This is the
 *                     pre-scheduler serving discipline.
 *   FairShare         weighted fair queueing over tenants: among
 *                     dispatchable requests, the one whose tenant has
 *                     consumed the least virtual time (each dispatch
 *                     charges 1/weight) goes first, arrival order
 *                     breaking ties. Monotone virtual time bounds any
 *                     tenant's wait by the shard service time of the
 *                     others — no starvation.
 *   ShortestRemaining shortest-remaining-shards first, arrival order
 *                     breaking ties: drains small requests fastest,
 *                     minimizing mean latency at the cost of letting
 *                     a large request wait.
 */

#ifndef MSIM_SCHED_POLICY_HH
#define MSIM_SCHED_POLICY_HH

#include <cstddef>
#include <string>
#include <vector>

#include "resilience/expected.hh"

namespace msim::sched
{

enum class Policy { Fifo, FairShare, ShortestRemaining };

/** Stable names: "fifo" / "fair" / "srs" (reports, ledger events). */
const char *policyName(Policy policy);

/**
 * Parse a --policy / MEGSIM_SCHED_POLICY value. Accepts the stable
 * names plus the spelled-out aliases "fair-share",
 * "shortest-remaining" and "shortest"; anything else is BadFormat.
 */
resilience::Expected<Policy> parsePolicy(const std::string &name);

/** One in-flight request as the policy sees it. */
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
 * Index of the candidate to dispatch next, or kNoPick when the policy
 * refuses to dispatch (no eligible candidate — or, under Fifo, the
 * oldest unfinished request has nothing eligible yet).
 */
std::size_t pickNext(Policy policy,
                     const std::vector<Candidate> &candidates);

} // namespace msim::sched

#endif // MSIM_SCHED_POLICY_HH
