/**
 * @file
 * The supervised campaign worker: the code that runs inside each
 * process a serve::Fleet forks. A worker owns nothing but its
 * two pipe ends — it receives ShardSpec requests, simulates the
 * shard's frame range serially against its own per-shard checkpoint
 * journal (so a killed worker's successor resumes instead of
 * restarting), and ships the completed rows back as one checksummed
 * reply frame. All crash-recovery policy (retry, backoff, quarantine)
 * lives in sched::Scheduler; the worker's only resilience duty is to
 * journal every completed frame before acknowledging anything.
 */

#ifndef MSIM_SERVE_WORKER_HH
#define MSIM_SERVE_WORKER_HH

#include "batch/campaign.hh"

namespace msim::serve
{

/**
 * Serve shard requests from @p reqFd, replying on @p repFd, until the
 * request pipe reaches EOF or a shutdown message arrives. Runs in the
 * forked child; the caller should `_exit()` with the return value so
 * no parent atexit handlers (or sanitizer leak reports for the
 * inherited heap) fire in the child.
 */
int workerMain(int reqFd, int repFd,
               const batch::CampaignConfig &config);

} // namespace msim::serve

#endif // MSIM_SERVE_WORKER_HH
