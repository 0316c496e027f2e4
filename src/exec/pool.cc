#include "exec/pool.hh"

#include <unistd.h>

#include "obs/attrib.hh"
#include "util/env.hh"

namespace msim::exec
{

namespace
{

/**
 * Set while a thread executes a share of a pool job. A nested
 * parallelFor/parallelMapOrdered from inside a job (e.g. the
 * k-selection sweep of a campaign analysis that runs as a pool job)
 * runs inline serial instead of deadlocking on the single job slot.
 */
thread_local bool tlsInsideJob = false;

std::size_t
readConfiguredThreads()
{
    const double n =
        util::numberFromEnv("MEGSIM_THREADS", util::NumberRule::Count,
                            0.0, "using the hardware thread count");
    if (n >= 1.0)
        return static_cast<std::size_t>(n);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

std::size_t &
configuredSlot()
{
    static std::size_t value = readConfiguredThreads();
    return value;
}

obs::Scalar &
poolCounter(const char *name, const char *desc)
{
    return obs::processRegistry().scalar(
        std::string("exec.pool.") + name, desc);
}

} // namespace

Pool::Pool(std::size_t workers) : workers_(workers ? workers : 1)
{
    shards_.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w)
        shards_.push_back(
            std::make_unique<WorkerObs>(static_cast<std::uint32_t>(w)));
    threads_.reserve(workers_ - 1);
    for (std::size_t w = 1; w < workers_; ++w)
        threads_.emplace_back([this, w] { workerLoop(w); });
    poolCounter("workers", "effective worker-pool size")
        .set(static_cast<double>(workers_));
}

Pool::~Pool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

std::size_t
Pool::configuredThreads()
{
    return configuredSlot();
}

void
Pool::setConfiguredThreads(std::size_t n)
{
    configuredSlot() = n ? n : 1;
}

Pool &
Pool::global()
{
    // Raw pointer on purpose: after fork() the parent's worker
    // threads do not exist in the child, so joining them (the
    // destructor) would hang — the child abandons the stale pool and
    // builds its own. Single-threaded access only (the caller side of
    // jobs), like the rest of the driver layer.
    static Pool *pool = nullptr;
    static pid_t owner = -1;
    if (pool && owner == getpid() &&
        pool->workers() == configuredThreads())
        return *pool;
    if (pool && owner == getpid())
        delete pool; // size changed in-process: join and rebuild
    pool = new Pool(configuredThreads());
    owner = getpid();
    return *pool;
}

void
Pool::recordError(std::size_t item, const resilience::Error &err)
{
    std::lock_guard<std::mutex> lock(errMutex_);
    if (item < errIndex_.load(std::memory_order_relaxed)) {
        errIndex_.store(item, std::memory_order_relaxed);
        firstError_ = err;
    }
}

void
Pool::runShare(std::size_t worker,
               const std::function<void()> *progress)
{
    obs::ProcessRegistryOverride statsShard(
        shards_[worker]->registry);
    obs::TimelineOverride timelineShard(shards_[worker]->timeline);
    // Declared after the registry override so its destructor flushes
    // this thread's attribution buckets into the worker shard (merged
    // in worker-index order like every other stat). A no-op when the
    // caller thread already opened a root, or attribution is off.
    obs::AttribRoot attribRoot;
    tlsInsideJob = true;
    const bool timeline = obs::timelineEnabled();
    const double shareT0 = obs::wallSeconds();

    auto execute = [&](std::size_t item) {
        // Items above the first known error are cancelled; every item
        // below it still runs, so the surfaced error is always the
        // lowest failing index regardless of scheduling.
        if (item > errIndex_.load(std::memory_order_relaxed)) {
            jobSkipped_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        auto result = (*fn_)(item, worker);
        jobItems_.fetch_add(1, std::memory_order_relaxed);
        if (!result.ok())
            recordError(item, result.error());
    };

    if (chunking_ == Chunking::Static) {
        const std::size_t begin = worker * n_ / workers_;
        const std::size_t end = (worker + 1) * n_ / workers_;
        if (begin < end)
            jobChunks_.fetch_add(1, std::memory_order_relaxed);
        const double chunkT0 = timeline ? obs::wallSeconds() : 0.0;
        for (std::size_t item = begin; item < end; ++item) {
            execute(item);
            if (progress)
                (*progress)();
            else if (worker != 0)
                doneCv_.notify_all();
        }
        if (timeline && begin < end)
            shards_[worker]->timeline.record(
                "pool.chunk", chunkT0, obs::wallSeconds(),
                end - begin);
    } else {
        for (;;) {
            const std::size_t begin =
                cursor_.fetch_add(chunk_, std::memory_order_relaxed);
            if (begin >= n_)
                break;
            const std::size_t end =
                begin + chunk_ < n_ ? begin + chunk_ : n_;
            jobChunks_.fetch_add(1, std::memory_order_relaxed);
            const double chunkT0 =
                timeline ? obs::wallSeconds() : 0.0;
            for (std::size_t item = begin; item < end; ++item)
                execute(item);
            if (timeline)
                shards_[worker]->timeline.record(
                    "pool.chunk", chunkT0, obs::wallSeconds(),
                    end - begin);
            if (progress)
                (*progress)();
            else if (worker != 0)
                doneCv_.notify_all();
        }
    }

    busySeconds_[worker] += obs::wallSeconds() - shareT0;
    tlsInsideJob = false;
}

void
Pool::workerLoop(std::size_t worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workCv_.wait(lock, [&] {
                return shutdown_ || generation_ != seen;
            });
            if (shutdown_)
                return;
            seen = generation_;
        }
        runShare(worker, nullptr);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --activeWorkers_;
        }
        doneCv_.notify_all();
    }
}

resilience::Expected<void>
Pool::runSerial(std::size_t n, const ItemFn &fn,
                const std::function<void()> &progress)
{
    // Exact serial fallback: no shards, no redirects, no threads —
    // items run in index order on the calling thread, and an error
    // cancels everything after it, exactly like the parallel path.
    for (std::size_t item = 0; item < n; ++item) {
        auto result = fn(item, 0);
        if (!result.ok())
            return result.error();
        if (progress)
            progress();
    }
    return {};
}

resilience::Expected<void>
Pool::run(std::size_t n, Chunking chunking, std::size_t chunkSize,
          const ItemFn &fn, const std::function<void()> &progress)
{
    if (n == 0)
        return {};
    if (workers_ == 1 || n == 1 || tlsInsideJob)
        return runSerial(n, fn, progress);

    const double jobT0 = obs::wallSeconds();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        n_ = n;
        chunking_ = chunking;
        busySeconds_.assign(workers_, 0.0);
        chunk_ = chunkSize
                     ? chunkSize
                     : (n + workers_ * 4 - 1) / (workers_ * 4);
        if (chunk_ == 0)
            chunk_ = 1;
        fn_ = &fn;
        cursor_.store(0, std::memory_order_relaxed);
        errIndex_.store(kNoError, std::memory_order_relaxed);
        jobChunks_.store(0, std::memory_order_relaxed);
        jobItems_.store(0, std::memory_order_relaxed);
        jobSkipped_.store(0, std::memory_order_relaxed);
        activeWorkers_ = workers_ - 1;
        ++generation_;
    }
    workCv_.notify_all();

    runShare(0, progress ? &progress : nullptr);

    // Wait for the other workers, draining ready commits every time
    // one of them signals progress.
    double waited = 0.0;
    const double waitT0 = obs::wallSeconds();
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (activeWorkers_ > 0) {
            const double t0 = obs::wallSeconds();
            doneCv_.wait(lock);
            waited += obs::wallSeconds() - t0;
            if (progress) {
                lock.unlock();
                progress();
                lock.lock();
            }
        }
        fn_ = nullptr;
    }
    if (waited > 0.0)
        obs::TimelineRecorder::global().record(
            "pool.wait", waitT0, obs::wallSeconds());

    mergeShards();
    ++poolCounter("jobs", "parallel jobs executed");
    poolCounter("chunks", "work chunks claimed by workers") +=
        static_cast<double>(
            jobChunks_.load(std::memory_order_relaxed));
    poolCounter("items", "items executed across all jobs") +=
        static_cast<double>(
            jobItems_.load(std::memory_order_relaxed));
    poolCounter("cancelled_items",
                "items skipped after a failing item") +=
        static_cast<double>(
            jobSkipped_.load(std::memory_order_relaxed));
    poolCounter("wait_seconds",
                "caller time blocked waiting on workers") += waited;
    double busy = 0.0;
    for (double s : busySeconds_)
        busy += s;
    poolCounter("busy_seconds",
                "summed worker wall time inside job shares") += busy;
    poolCounter("job_seconds",
                "caller wall time spent inside pool jobs") +=
        obs::wallSeconds() - jobT0;

    if (errIndex_.load(std::memory_order_relaxed) != kNoError) {
        std::lock_guard<std::mutex> lock(errMutex_);
        return firstError_;
    }
    return {};
}

void
Pool::mergeShards()
{
    // Worker-index order makes the fold deterministic; shards are
    // reset so the next job starts from zero.
    for (std::size_t w = 0; w < workers_; ++w) {
        obs::processRegistry().mergeFrom(shards_[w]->registry);
        obs::TimelineRecorder::global().mergeFrom(
            shards_[w]->timeline);
        shards_[w]->registry.resetPerFrame();
    }
}

resilience::Expected<void>
Pool::parallelFor(std::size_t n, const ItemFn &fn, Chunking chunking,
                  std::size_t chunkSize)
{
    return run(n, chunking, chunkSize, fn, nullptr);
}

} // namespace msim::exec
