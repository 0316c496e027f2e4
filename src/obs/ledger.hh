/**
 * @file
 * Machine-readable run ledger: an append-only JSONL event log written
 * next to campaign.json (or where --ledger points), and returned with
 * every served request.
 *
 * One line per event, each a compact `util::Json` object carrying the
 * schema tag (`megsim-run-v1`), a monotonically increasing sequence
 * number, the event type and a timestamp in seconds relative to the
 * ledger's creation. Event types:
 *
 *   run_start  manifest: tool, thread count, supervised worker count,
 *              frame limit, scale, GPU profile, bench list, config
 *              fingerprint, and the MEGSIM_* environment subset that
 *              shaped the run
 *   cache      per-benchmark cache outcome (fresh/rebuilt/built) and
 *              checkpoint-resumed frame count
 *   phase      a named wall-clock phase (seconds, entries)
 *   bench      one benchmark's result row (frames, chosen k,
 *              representatives, reduction, per-metric error)
 *   attrib     host-cost attribution (domain → seconds, coverage)
 *   metrics    final suite-level numbers (open key → number map)
 *   run_end    total wall seconds and exit status
 *
 * Supervised (multi-process) campaigns add four event types:
 *
 *   worker_spawn      a worker process forked (worker slot, pid)
 *   worker_exit       a worker left the pool: status is "exit N" or
 *                     "signal N", reason classifies the detection
 *                     (crash / hang / corrupt-reply / shutdown), and
 *                     shard names the in-flight shard if any
 *   shard_retry       a failed shard rescheduled (attempt number,
 *                     failure reason, backoff before re-dispatch)
 *   shard_quarantine  a shard abandoned after exhausting its retry
 *                     cap; the campaign completes degraded
 *
 * Scheduled (multi-request) campaigns add three more, recorded into
 * the owning request's ledger by the sched::Scheduler:
 *
 *   request_admit     a request entered the run queue (request id,
 *                     tenant, active policy, bench list, queue depth)
 *   sched_dispatch    one scheduling decision: shard N of request R
 *                     leased to fleet worker W under the policy
 *   request_done      the request finalized: ok/degraded, queue wait
 *                     and service time, shard/quarantine counts
 *
 * The schema is *strict*: validate() fails on an unknown event type,
 * a missing required field, or any top-level field the schema does
 * not name — CI round-trips every ledger through the util/json parser
 * and this validator, so a drive-by field addition cannot silently
 * fork the format. Timestamps and seconds are host-clock fields and
 * are excluded from cross-run comparisons by every consumer.
 *
 * The ledger accumulates in memory and is written atomically by
 * save(); a crashed run simply leaves no ledger, never a torn one.
 */

#ifndef MSIM_OBS_LEDGER_HH
#define MSIM_OBS_LEDGER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "resilience/expected.hh"
#include "util/json.hh"

namespace msim::obs
{

class RunLedger
{
  public:
    static constexpr const char *kSchema = "megsim-run-v1";

    RunLedger();

    /**
     * Append an event. @p fields is the event-specific payload (an
     * object); schema, seq, event and t are stamped on here. The
     * event is validated immediately — a malformed event is a fatal
     * error at the call site, not a surprise in CI.
     */
    void event(const std::string &type, util::Json fields);

    const std::vector<util::Json> &events() const { return events_; }
    std::size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    /** One compact JSON object per line, newline-terminated. */
    std::string serialize() const;

    /** Atomic write of serialize() to @p path. */
    resilience::Expected<void> save(const std::string &path) const;

    /**
     * Parse and strictly validate a JSONL ledger. Returns the parsed
     * events, or a structured error naming the first offending line
     * (an event that fails validateEvent(), or whose seq is not its
     * index). A ledger with no event at all is Truncated.
     */
    static resilience::Expected<std::vector<util::Json>>
    parse(const std::string &text);

    /** parse() on a file's contents. */
    static resilience::Expected<std::vector<util::Json>>
    load(const std::string &path);

    /**
     * Validate one event object against the megsim-run-v1 schema:
     * correct schema tag, known event type, all required fields
     * present with the right JSON kind, no undeclared fields.
     */
    static resilience::Expected<void>
    validateEvent(const util::Json &ev);

  private:
    std::vector<util::Json> events_;
    double start_;
    std::uint64_t seq_ = 0;
};

} // namespace msim::obs

#endif // MSIM_OBS_LEDGER_HH
