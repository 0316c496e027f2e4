/**
 * @file
 * The shared worker fleet: forked shard-worker processes as a leasable
 * pool.
 *
 * A Fleet owns the process mechanics — fork/pipe plumbing,
 * crash/hang/corruption detection, reaping — and nothing else. It has
 * no idea what a campaign or a request is: its caller, the
 * sched::Scheduler, leases idle slots one shard at a time via
 * dispatch() and collects typed Events from poll(). That split is
 * what lets shards from *different* requests interleave on one pool
 * of processes: the fleet tracks only (slot, in-flight shard id,
 * deadline), and the scheduler maps shard ids back to their owning
 * requests.
 *
 * Failure taxonomy:
 *
 *   detection                        event
 *   EOF on the reply pipe            Crash        (worker died)
 *   per-shard deadline expired       Hang         (SIGKILL + reap)
 *   checksum/format/io damage        CorruptReply (SIGKILL + reap)
 *   well-formed reply frame          Reply
 *
 * Workers are spawned lazily by ensureWorkers() and respawned there
 * after a reap, so a fleet shrinks to nothing when idle-with-no-work
 * and heals while work remains. Spawn/exit ledger events accumulate
 * inside the fleet (it serves many requests, so it cannot own ONE
 * ledger) and are drained by the scheduler, which routes them to the
 * affected request's ledger. serve.* fleet counters land in the stats
 * registry that was ambient at construction — never in a per-request
 * override.
 */

#ifndef MSIM_SERVE_FLEET_HH
#define MSIM_SERVE_FLEET_HH

#include <sys/types.h>

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "batch/campaign.hh"
#include "obs/stats.hh"
#include "serve/protocol.hh"
#include "util/json.hh"

namespace msim::serve
{

class Fleet
{
  public:
    enum class EventKind { Reply, Crash, Hang, CorruptReply };

    /** One completed lease: the shard's outcome on its slot. */
    struct Event
    {
        EventKind kind = EventKind::Reply;
        std::size_t slot = 0;
        std::size_t shard = 0;
        util::Json reply;   // Reply only
        std::string reason; // failure detail for the retry ledger
    };

    /**
     * @p workerConfig is the config every forked worker runs shards
     * under (cache dir, scale, frame limit — shared across requests);
     * @p size caps the live worker processes. Ignores SIGPIPE for the
     * whole process: the fleet writes to pipes whose reader may die.
     */
    Fleet(batch::CampaignConfig workerConfig, std::size_t size);
    ~Fleet();
    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    std::size_t size() const { return slots_.size(); }
    std::size_t busyCount() const;
    /** An alive, idle slot exists — dispatch() would not queue. */
    bool hasIdle() const;

    /**
     * Spawn (or respawn after a reap) workers until
     * min(size, @p outstanding) are alive — a fleet never holds more
     * processes than it has shards to feed.
     */
    void ensureWorkers(std::size_t outstanding);

    /**
     * Lease an idle slot for @p spec with a wall deadline of
     * @p deadlineSeconds from now. A worker that dies taking the
     * request is reaped ("crash" — the shard was never attempted) and
     * the next idle slot is tried. Returns false when no idle slot
     * accepted the shard; @p slot (optional) receives the slot index.
     */
    bool dispatch(const ShardSpec &spec, double deadlineSeconds,
                  std::size_t *slot = nullptr);

    /**
     * Wait up to @p timeoutMs for replies on busy slots, enforce
     * shard deadlines, and return every completed lease as an Event.
     * Idle-fleet calls return immediately with no events.
     */
    std::vector<Event> poll(int timeoutMs);

    /** Reap every worker ("shutdown"); EOF on the request pipe is the
     *  workers' signal to exit 0 on their own. */
    void shutdown();

    /**
     * Hand over the (type, fields) worker_spawn / worker_exit ledger
     * events accumulated since the last drain, in occurrence order.
     * The caller routes them to the right request ledger(s).
     */
    std::vector<std::pair<std::string, util::Json>>
    drainLedgerEvents();

  private:
    struct Slot
    {
        pid_t pid = -1;
        int reqFd = -1; // parent writes requests here
        int repFd = -1; // parent reads replies here
        bool alive = false;
        bool busy = false;
        std::size_t shard = 0;
        double deadline = 0.0;
    };

    void spawnSlot(std::size_t slot);
    void reapSlot(std::size_t slot, const char *reason);

    batch::CampaignConfig config_;
    std::vector<Slot> slots_;
    std::vector<std::pair<std::string, util::Json>> pendingLedger_;
    obs::StatsRegistry &ambient_;
};

} // namespace msim::serve

#endif // MSIM_SERVE_FLEET_HH
