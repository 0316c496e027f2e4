#include "sched/policy.hh"

namespace msim::sched
{

std::size_t
pickNext(const std::vector<Candidate> &candidates)
{
    std::size_t best = kNoPick;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const Candidate &c = candidates[i];
        if (!c.eligible || c.remaining == 0)
            continue;
        if (best == kNoPick) {
            best = i;
            continue;
        }
        const Candidate &b = candidates[best];
        if (c.tenantVirtual < b.tenantVirtual ||
            (c.tenantVirtual == b.tenantVirtual &&
             c.arrival < b.arrival))
            best = i;
    }
    return best;
}

} // namespace msim::sched
