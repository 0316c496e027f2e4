#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "core/megsim.hh"
#include "exec/pool.hh"
#include "obs/stats.hh"
#include "resilience/expected.hh"
#include "resilience/fault.hh"
#include "scratch_dir.hh"
#include "workloads/workloads.hh"

using namespace msim;
using namespace msim::exec;

namespace
{

// A test-local allocation counter: while armed, it keeps the largest
// single request any operator new in this binary sees.
std::atomic<bool> trackAllocations{false};
std::atomic<std::size_t> largestAllocation{0};

void *
countedAlloc(std::size_t size)
{
    if (trackAllocations.load(std::memory_order_relaxed)) {
        std::size_t seen =
            largestAllocation.load(std::memory_order_relaxed);
        while (size > seen &&
               !largestAllocation.compare_exchange_weak(
                   seen, size, std::memory_order_relaxed)) {
        }
    }
    return std::malloc(size ? size : 1);
}

// Out of line, so the compiler does not see a pointer from operator
// new reach free() and warn about a mismatch that is not one.
[[gnu::noinline]] void
countedFree(void *p) noexcept
{
    std::free(p);
}

} // namespace

// Every replaceable form that a default-aligned new or delete can take,
// so each allocation pairs malloc with free (sanitizers check the
// pairing).
void *
operator new(std::size_t size)
{
    if (void *p = countedAlloc(size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedAlloc(size);
}

void operator delete(void *p) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    countedFree(p);
}

namespace
{

/** A result that counts its live copies. */
std::atomic<int> liveResults{0};

struct Counted
{
    Counted() { ++liveResults; }
    Counted(const Counted &other) : item(other.item) { ++liveResults; }
    ~Counted() { --liveResults; }
    std::size_t item = 0;
};

/** Scratch dir per test; threads and faults restored on both ends. */
class ExecTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        resilience::FaultInjector::setGlobalSpec("");
        saved_ = Pool::configuredThreads();
        dir_ = msim::test::scratchDir() /
               ("megsim_exec_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void
    TearDown() override
    {
        resilience::FaultInjector::setGlobalSpec("");
        Pool::setConfiguredThreads(saved_);
        std::filesystem::remove_all(dir_);
    }

    std::string
    path(const std::string &name) const
    {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
    std::size_t saved_ = 1;
};

std::string
slurp(const std::string &p)
{
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

bool
sameMatrix(const megsim::FeatureMatrix &a,
           const megsim::FeatureMatrix &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        return false;
    for (std::size_t f = 0; f < a.rows(); ++f)
        for (std::size_t c = 0; c < a.cols(); ++c)
            if (a.at(f, c) != b.at(f, c))
                return false;
    return true;
}

} // namespace

TEST_F(ExecTest, ParallelForRunsEveryItemExactlyOnce)
{
    for (Chunking chunking : {Chunking::Static, Chunking::Dynamic}) {
        Pool pool(4);
        std::vector<std::atomic<int>> hits(1000);
        auto err = pool.parallelFor(
            hits.size(),
            [&](std::size_t i,
                std::size_t w) -> resilience::Expected<void> {
                EXPECT_LT(w, pool.workers());
                hits[i].fetch_add(1, std::memory_order_relaxed);
                return {};
            },
            chunking);
        EXPECT_TRUE(err.ok());
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST_F(ExecTest, ParallelForSurfacesLowestFailingIndex)
{
    Pool pool(4);
    std::vector<std::atomic<int>> ran(200);
    auto err = pool.parallelFor(
        ran.size(),
        [&](std::size_t i, std::size_t) -> resilience::Expected<void> {
            ran[i].fetch_add(1, std::memory_order_relaxed);
            if (i == 37 || i == 61)
                return resilience::errorf(resilience::Errc::Injected,
                                          "item %zu failed", i);
            return {};
        },
        Chunking::Dynamic, 1);
    ASSERT_FALSE(err.ok());
    // The error surfaced is deterministically the LOWEST failing
    // index, and every item below it has run.
    EXPECT_NE(err.error().message.find("item 37"), std::string::npos)
        << err.error().message;
    for (std::size_t i = 0; i <= 37; ++i)
        EXPECT_EQ(ran[i].load(), 1) << "item " << i;
}

TEST_F(ExecTest, MapOrderedCommitsOnCallerInIndexOrder)
{
    Pool pool(4);
    const std::size_t n = 500;
    std::vector<std::size_t> order;
    auto err = pool.parallelMapOrdered<std::size_t>(
        n,
        [](std::size_t i,
           std::size_t) -> resilience::Expected<std::size_t> {
            return i * 3;
        },
        [&](std::size_t i, std::size_t &&value) {
            EXPECT_EQ(value, i * 3);
            order.push_back(i);
        });
    EXPECT_TRUE(err.ok());
    ASSERT_EQ(order.size(), n);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(order[i], i);
}

TEST_F(ExecTest, MapOrderedErrorCommitsExactPrefix)
{
    Pool pool(4);
    std::vector<std::size_t> committed;
    auto err = pool.parallelMapOrdered<std::size_t>(
        100,
        [](std::size_t i,
           std::size_t) -> resilience::Expected<std::size_t> {
            if (i == 13)
                return resilience::errorf(resilience::Errc::Injected,
                                          "item %zu failed", i);
            return i;
        },
        [&](std::size_t i, std::size_t &&) { committed.push_back(i); },
        1);
    ASSERT_FALSE(err.ok());
    // Committed prefix is exactly [0, firstFailingItem).
    ASSERT_EQ(committed.size(), 13u);
    for (std::size_t i = 0; i < 13; ++i)
        EXPECT_EQ(committed[i], i);
}

TEST_F(ExecTest, MapOrderedBuffersNoSlotPerResult)
{
    // 10,000 results of 4 KiB: one slot per result would be a single
    // 41 MB allocation made before the first item runs. A result lives
    // from produce to commit instead.
    using Page = std::array<unsigned char, 4096>;
    const std::size_t n = 10000;
    for (std::size_t threads : {1, 2, 8}) {
        Pool pool(threads);
        std::size_t sum = 0;
        std::size_t expected = 0;
        for (std::size_t i = 0; i < n; ++i)
            expected += i % 251;
        largestAllocation.store(0);
        trackAllocations.store(true);
        auto err = pool.parallelMapOrdered<Page>(
            n,
            [](std::size_t i,
               std::size_t) -> resilience::Expected<Page> {
                Page page;
                page.fill(static_cast<unsigned char>(i % 251));
                return page;
            },
            [&](std::size_t, Page &&page) { sum += page[4095]; });
        trackAllocations.store(false);
        ASSERT_TRUE(err.ok());
        EXPECT_EQ(sum, expected) << threads << " threads";
        EXPECT_LT(largestAllocation.load(), n * sizeof(Page))
            << threads << " threads";
    }
}

TEST_F(ExecTest, MapOrderedFreesResultsProducedAfterTheFailure)
{
    for (std::size_t threads : {1, 2, 8}) {
        Pool pool(threads);
        const std::size_t n = 200;
        const std::size_t failing = 50;
        std::atomic<std::size_t> producedAfter{0};
        std::vector<std::size_t> committed;
        auto err = pool.parallelMapOrdered<Counted>(
            n,
            [&](std::size_t i,
                std::size_t) -> resilience::Expected<Counted> {
                if (i == failing) {
                    // Hold the failure back until another worker has
                    // produced a result past it, so one is buffered.
                    const auto until = std::chrono::steady_clock::now() +
                                       std::chrono::seconds(5);
                    while (threads > 1 && producedAfter.load() == 0 &&
                           std::chrono::steady_clock::now() < until)
                        std::this_thread::yield();
                    return resilience::errorf(resilience::Errc::Injected,
                                              "item %zu failed", i);
                }
                if (i > failing)
                    ++producedAfter;
                Counted result;
                result.item = i;
                return result;
            },
            [&](std::size_t i, Counted &&result) {
                EXPECT_EQ(result.item, i);
                committed.push_back(i);
            },
            1);
        ASSERT_FALSE(err.ok());
        EXPECT_EQ(committed.size(), failing) << threads << " threads";
        if (threads > 1) {
            EXPECT_GT(producedAfter.load(), 0u) << threads << " threads";
        }
        EXPECT_EQ(liveResults.load(), 0) << threads << " threads";
    }
}

TEST_F(ExecTest, NestedUseDegradesToSerial)
{
    Pool pool(4);
    std::vector<int> outer(8, 0);
    auto err = pool.parallelFor(
        outer.size(),
        [&](std::size_t i, std::size_t) -> resilience::Expected<void> {
            // A nested job must run inline instead of deadlocking on
            // the single in-flight-job slot.
            std::vector<int> inner(16, 0);
            auto nested = pool.parallelFor(
                inner.size(),
                [&](std::size_t j,
                    std::size_t w) -> resilience::Expected<void> {
                    EXPECT_EQ(w, 0u) << "nested items run inline";
                    inner[j] = 1;
                    return {};
                });
            EXPECT_TRUE(nested.ok());
            for (int v : inner)
                EXPECT_EQ(v, 1);
            outer[i] = 1;
            return {};
        });
    EXPECT_TRUE(err.ok());
    for (int v : outer)
        EXPECT_EQ(v, 1);
}

TEST_F(ExecTest, WorkerStatShardsMergeIntoProcessRegistry)
{
    // Workers bump a process-registry counter from inside the job;
    // the TLS redirect sends each bump to the worker's own shard and
    // the merge folds them back — so the total is exact at any thread
    // count (and the write pattern is what the TSan CI job checks).
    const std::string name = "test.exec.shard_bumps";
    const double before =
        obs::processRegistry().scalar(name, "").value();
    Pool pool(4);
    auto err = pool.parallelFor(
        1000,
        [&](std::size_t, std::size_t) -> resilience::Expected<void> {
            ++obs::processRegistry().scalar(name, "");
            return {};
        });
    EXPECT_TRUE(err.ok());
    EXPECT_DOUBLE_EQ(
        obs::processRegistry().scalar(name, "").value(),
        before + 1000.0);
}

TEST_F(ExecTest, SerialPoolIsExactFallback)
{
    Pool pool(1);
    EXPECT_EQ(pool.workers(), 1u);
    std::vector<std::size_t> order;
    auto err = pool.parallelFor(
        32,
        [&](std::size_t i, std::size_t w) -> resilience::Expected<void> {
            EXPECT_EQ(w, 0u);
            order.push_back(i);
            return {};
        });
    EXPECT_TRUE(err.ok());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i) << "serial pool preserves index order";
}

TEST_F(ExecTest, PipelineOutputsAreThreadCountInvariant)
{
    // The full front half of the MEGsim flow — ground-truth passes,
    // feature build, k-means, k-selection — must be bit-identical at
    // 1, 2 and 8 threads.
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 12);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    struct Snapshot
    {
        megsim::FeatureMatrix features;
        megsim::KMeansResult clusters;
        megsim::SelectionResult selection;
        std::vector<std::vector<double>> statsCsv;
    };
    auto snapshot = [&](std::size_t threads) {
        Pool::setConfiguredThreads(threads);
        megsim::BenchmarkData data(scene, config, "");
        Snapshot s;
        s.features = megsim::buildFeatureMatrix(data.activities(),
                                                scene);
        megsim::normalize(s.features);
        s.clusters = megsim::kmeans(s.features, 3);
        s.selection = megsim::selectClustering(s.features);
        for (const gpusim::FrameStats &fs : data.frameStats())
            s.statsCsv.push_back(fs.toCsvRow());
        return s;
    };

    const Snapshot serial = snapshot(1);
    for (std::size_t threads : {std::size_t(2), std::size_t(8)}) {
        const Snapshot parallel = snapshot(threads);
        EXPECT_TRUE(sameMatrix(serial.features, parallel.features))
            << threads << " threads: FeatureMatrix diverged";
        EXPECT_EQ(serial.clusters.labels, parallel.clusters.labels)
            << threads << " threads";
        EXPECT_EQ(serial.clusters.centroids,
                  parallel.clusters.centroids)
            << threads << " threads";
        EXPECT_EQ(serial.clusters.inertia, parallel.clusters.inertia)
            << threads << " threads";
        EXPECT_EQ(serial.selection.chosenIndex,
                  parallel.selection.chosenIndex)
            << threads << " threads";
        ASSERT_EQ(serial.selection.trace.size(),
                  parallel.selection.trace.size())
            << threads << " threads: selection trace diverged";
        for (std::size_t i = 0; i < serial.selection.trace.size(); ++i)
            EXPECT_EQ(serial.selection.trace[i].bic,
                      parallel.selection.trace[i].bic)
                << threads << " threads, trace step " << i;
        EXPECT_EQ(serial.statsCsv, parallel.statsCsv)
            << threads << " threads";
    }
}

TEST_F(ExecTest, CheckpointJournalsAreThreadCountInvariant)
{
    // Kill the ground-truth pass right after frame 2 is checkpointed,
    // once per thread count, each in its own process and cache dir.
    // The journal + manifest bytes a crashed run leaves behind must
    // not depend on the thread count.
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 6);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    const std::size_t threadCounts[] = {1, 2, 8};
    std::vector<std::string> stems;
    for (std::size_t t : threadCounts) {
        const std::string cache =
            path(std::string("t").append(std::to_string(t)));
        std::filesystem::create_directories(cache);
        const pid_t child = fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            Pool::setConfiguredThreads(t);
            resilience::FaultInjector::setGlobalSpec(
                "run.kill:frame=2");
            megsim::BenchmarkData doomed(scene, config, cache);
            doomed.frameStats();
            _exit(42); // unreachable: the fault fires first
        }
        int status = 0;
        ASSERT_EQ(waitpid(child, &status, 0), child);
        ASSERT_TRUE(WIFSIGNALED(status));
        ASSERT_EQ(WTERMSIG(status), SIGKILL);

        megsim::BenchmarkData probe(scene, config, cache);
        stems.push_back(probe.checkpointStem());
    }

    for (const char *suffix :
         {".ckpt.manifest", ".ckpt.stats.jnl", ".ckpt.activity.jnl"}) {
        const std::string reference = slurp(stems[0] + suffix);
        ASSERT_FALSE(reference.empty()) << suffix;
        for (std::size_t i = 1; i < stems.size(); ++i)
            EXPECT_EQ(slurp(stems[i] + suffix), reference)
                << suffix << " diverged at "
                << threadCounts[i] << " threads";
    }
}

TEST_F(ExecTest, SigkillResumeRoundTripAtFourThreads)
{
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 5);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    // Uninterrupted serial reference, no caching.
    Pool::setConfiguredThreads(1);
    megsim::BenchmarkData reference(scene, config, "");
    const std::vector<gpusim::FrameStats> expected =
        reference.frameStats();
    ASSERT_EQ(expected.size(), 5u);

    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
        Pool::setConfiguredThreads(4);
        resilience::FaultInjector::setGlobalSpec("run.kill:frame=2");
        megsim::BenchmarkData doomed(scene, config, dir_.string());
        doomed.frameStats();
        _exit(42);
    }
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Resume with four workers too: the surviving prefix plus the
    // recomputed tail must match the serial reference bit for bit.
    Pool::setConfiguredThreads(4);
    megsim::BenchmarkData survivor(scene, config, dir_.string());
    const std::vector<gpusim::FrameStats> resumed =
        survivor.frameStats();
    ASSERT_EQ(resumed.size(), expected.size());
    for (std::size_t f = 0; f < expected.size(); ++f)
        EXPECT_EQ(resumed[f].toCsvRow(), expected[f].toCsvRow())
            << "frame " << f;
}

TEST_F(ExecTest, ShardMergeIsExactUnderDynamicChunking)
{
    // Dynamic chunking assigns items to workers nondeterministically,
    // so the per-worker shard *contents* differ run to run — but the
    // worker-index-order merge must still reproduce the exact serial
    // totals for every stat kind, at any thread count. Integer-valued
    // samples keep double addition associative, which is what makes
    // this bit-exact rather than merely close.
    const std::size_t n = 1000;
    auto run = [&](std::size_t threads, const std::string &tag) {
        Pool pool(threads);
        obs::StatsRegistry &reg = obs::processRegistry();
        const std::string scalar = "test.exec.dyn." + tag + ".count";
        const std::string avg = "test.exec.dyn." + tag + ".avg";
        const std::string dist = "test.exec.dyn." + tag + ".dist";
        auto err = pool.parallelFor(
            n,
            [&](std::size_t i,
                std::size_t) -> resilience::Expected<void> {
                obs::StatsRegistry &shard = obs::processRegistry();
                ++shard.scalar(scalar, "");
                shard.average(avg, "").sample(
                    static_cast<double>(i % 7));
                shard.distribution(dist, 0.0, 10.0, 10, "")
                    .sample(static_cast<double>(i % 13));
                return {};
            },
            Chunking::Dynamic, 1); // chunk=1: maximum interleave
        EXPECT_TRUE(err.ok());
        // Return the merged view for comparison.
        struct Merged
        {
            double count, mean;
            std::uint64_t samples;
            std::vector<std::uint64_t> buckets;
            std::uint64_t overflow;
        } m;
        m.count = reg.scalar(scalar, "").value();
        m.mean = reg.average(avg, "").value();
        m.samples = reg.average(avg, "").count();
        const obs::Distribution &d =
            reg.distribution(dist, 0.0, 10.0, 10, "");
        for (std::size_t b = 0; b < d.numBuckets(); ++b)
            m.buckets.push_back(d.bucket(b));
        m.overflow = d.overflow();
        return m;
    };

    const auto serial = run(1, "t1");
    EXPECT_DOUBLE_EQ(serial.count, static_cast<double>(n));
    EXPECT_EQ(serial.samples, n);
    for (std::size_t threads : {std::size_t(2), std::size_t(8)}) {
        const auto parallel =
            run(threads,
                std::string("t").append(std::to_string(threads)));
        EXPECT_EQ(parallel.count, serial.count) << threads;
        EXPECT_EQ(parallel.mean, serial.mean) << threads;
        EXPECT_EQ(parallel.samples, serial.samples) << threads;
        EXPECT_EQ(parallel.buckets, serial.buckets) << threads;
        EXPECT_EQ(parallel.overflow, serial.overflow) << threads;
    }
}

TEST_F(ExecTest, PoolCountersAreRegistered)
{
    Pool::setConfiguredThreads(3);
    Pool &pool = Pool::global();
    EXPECT_EQ(pool.workers(), 3u);
    const double jobsBefore =
        obs::processRegistry().scalar("exec.pool.jobs", "").value();
    (void)pool.parallelFor(
        64, [](std::size_t, std::size_t) -> resilience::Expected<void> {
            return {};
        });
    EXPECT_DOUBLE_EQ(
        obs::processRegistry().scalar("exec.pool.jobs", "").value(),
        jobsBefore + 1.0);
    EXPECT_GE(obs::processRegistry()
                  .scalar("exec.pool.items", "")
                  .value(),
              64.0);
    EXPECT_DOUBLE_EQ(obs::processRegistry()
                         .scalar("exec.pool.workers", "")
                         .value(),
                     3.0);
}
