/**
 * @file
 * Deterministic parallel execution engine.
 *
 * exec::Pool is a fixed-size worker pool (MEGSIM_THREADS, default
 * hardware_concurrency, 1 = exact serial fallback) built for the
 * ground-truth pass, clustering and the benches. Its two primitives
 * guarantee results that are bit-identical across thread counts:
 *
 *  - parallelFor(n, fn): run fn(item, worker) over [0, n). Each item
 *    writes only its own output slots, so content is independent of
 *    which worker ran it. Static chunking gives every worker one
 *    contiguous range; dynamic chunking load-balances via an atomic
 *    cursor.
 *
 *  - parallelMapOrdered(n, produce, commit): workers produce values
 *    into per-item slots; commit(item, value) runs ONLY on the
 *    calling thread, in strictly increasing item order, as soon as
 *    the prefix is complete. This is how checkpoint journal appends
 *    stay serialized, ordered and SIGKILL-safe under parallel
 *    simulation. A slot is one owning pointer: a result lives from
 *    produce to commit, so the job buffers only the results produced
 *    ahead of the committed prefix, never n of them.
 *
 * The caller participates as worker 0; a pool of size 1 therefore
 * runs everything inline on the calling thread with no concurrency at
 * all. Per-worker obs shards (StatsRegistry + TimelineRecorder) are
 * installed around each worker's share and merged into the process
 * globals in worker-index order when the job completes, so
 * integer-valued counters, obs::Span totals among them, are identical
 * across thread counts.
 *
 * Errors and cancellation go through resilience::Expected. When an
 * item fails, items with larger indices are cancelled (skipped), but
 * every smaller index still runs — so the surfaced error is
 * deterministically the FIRST failing item, and the committed prefix
 * of parallelMapOrdered is exactly [0, firstError). Nested use from
 * inside a job degrades to inline serial execution.
 *
 * Counters live under `exec.pool.*` in the process registry.
 */

#ifndef MSIM_EXEC_POOL_HH
#define MSIM_EXEC_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/profile.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "resilience/expected.hh"

namespace msim::exec
{

enum class Chunking {
    Static,  // worker w owns the contiguous range [w*n/W, (w+1)*n/W)
    Dynamic, // workers grab chunkSize items at a time from a cursor
};

class Pool
{
  public:
    /** fn(item, worker): worker is in [0, workers()), 0 = caller. */
    using ItemFn = std::function<resilience::Expected<void>(
        std::size_t item, std::size_t worker)>;

    explicit Pool(std::size_t workers = configuredThreads());
    ~Pool();
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    std::size_t workers() const { return workers_; }

    /**
     * Run @p fn over [0, n). Returns the error of the first failing
     * item (all items before it have run), or success. @p chunkSize 0
     * picks a balanced default.
     */
    resilience::Expected<void>
    parallelFor(std::size_t n, const ItemFn &fn,
                Chunking chunking = Chunking::Dynamic,
                std::size_t chunkSize = 0);

    /**
     * Produce one T per item on the workers, commit them on the
     * calling thread in strictly increasing item order. On error the
     * committed prefix is exactly [0, firstFailingItem), and the
     * results produced after it are freed before the job returns.
     */
    template <typename T>
    resilience::Expected<void> parallelMapOrdered(
        std::size_t n,
        const std::function<resilience::Expected<T>(
            std::size_t item, std::size_t worker)> &produce,
        const std::function<void(std::size_t item, T &&value)> &commit,
        std::size_t chunkSize = 1)
    {
        // The producer allocates the result and publishes the pointer
        // (non-null = ready); the commit takes it back and frees it.
        struct Slots
        {
            explicit Slots(std::size_t n)
                : n(n), at(new std::atomic<T *>[n]())
            {}
            ~Slots()
            {
                for (std::size_t i = 0; i < n; ++i)
                    delete at[i].load(std::memory_order_relaxed);
            }
            std::size_t n;
            std::unique_ptr<std::atomic<T *>[]> at;
        } slots(n);

        std::size_t committed = 0; // caller thread only
        auto drain = [&]() {
            while (committed < n) {
                std::unique_ptr<T> value(slots.at[committed].exchange(
                    nullptr, std::memory_order_acquire));
                if (!value)
                    break;
                commit(committed, std::move(*value));
                ++committed;
            }
        };
        auto item = [&](std::size_t i, std::size_t w)
            -> resilience::Expected<void> {
            auto value = produce(i, w);
            if (!value.ok())
                return value.error();
            slots.at[i].store(new T(std::move(*value)),
                              std::memory_order_release);
            return {};
        };
        auto err = run(n, Chunking::Dynamic, chunkSize, item, drain);
        drain(); // the full prefix, or [0, firstError) on failure
        return err;
    }

    /**
     * The pool size selected by the environment: MEGSIM_THREADS if
     * it is a whole number >= 1, else std::thread::hardware_concurrency
     * (any other set value warns, naming the variable and the value).
     */
    static std::size_t configuredThreads();

    /** Override the configured size (the CLI's --threads flag). */
    static void setConfiguredThreads(std::size_t n);

    /**
     * Process-wide pool, (re)built on the calling thread whenever the
     * configured size changed. Fork-safe: a pool inherited from a
     * parent process is abandoned (its threads do not exist in the
     * child) and a fresh one is built.
     */
    static Pool &global();

  private:
    void workerLoop(std::size_t worker);
    void runShare(std::size_t worker,
                  const std::function<void()> *progress);
    void recordError(std::size_t item, const resilience::Error &err);
    void mergeShards();

    resilience::Expected<void>
    run(std::size_t n, Chunking chunking, std::size_t chunkSize,
        const ItemFn &fn, const std::function<void()> &progress);

    resilience::Expected<void>
    runSerial(std::size_t n, const ItemFn &fn,
              const std::function<void()> &progress);

    /** Per-worker single-writer observability shards. */
    struct WorkerObs
    {
        explicit WorkerObs(std::uint32_t track) : timeline(track) {}
        obs::StatsRegistry registry;
        obs::TimelineRecorder timeline; // track = worker index
    };

    static constexpr std::size_t kNoError =
        static_cast<std::size_t>(-1);

    std::size_t workers_;
    std::vector<std::thread> threads_;
    std::vector<std::unique_ptr<WorkerObs>> shards_;

    std::mutex mutex_;
    std::condition_variable workCv_; // workers wait for a job
    std::condition_variable doneCv_; // caller waits / drains commits
    std::uint64_t generation_ = 0;
    std::size_t activeWorkers_ = 0;
    bool shutdown_ = false;

    // State of the (single) in-flight job.
    std::size_t n_ = 0;
    std::size_t chunk_ = 1;
    Chunking chunking_ = Chunking::Dynamic;
    const ItemFn *fn_ = nullptr;
    std::atomic<std::size_t> cursor_{0};
    std::atomic<std::size_t> errIndex_{kNoError};
    std::mutex errMutex_;
    resilience::Error firstError_;
    std::atomic<std::uint64_t> jobChunks_{0};
    std::atomic<std::uint64_t> jobItems_{0};
    std::atomic<std::uint64_t> jobSkipped_{0};
    // Per-worker wall seconds spent inside the current job's share;
    // each worker writes only its own slot, the caller folds them into
    // exec.pool.busy_seconds after the job (utilization = busy /
    // (workers * job_seconds)).
    std::vector<double> busySeconds_;
};

} // namespace msim::exec

#endif // MSIM_EXEC_POOL_HH
