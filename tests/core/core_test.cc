#include <gtest/gtest.h>

#include <cstdio>
#include <cmath>
#include <filesystem>
#include <latch>

#include "core/megsim.hh"
#include "exec/pool.hh"
#include "scratch_dir.hh"
#include "sim/random.hh"
#include "workloads/workloads.hh"

using namespace msim;
using namespace msim::megsim;

namespace
{

/**
 * A feature matrix with @p k well-separated synthetic clusters: each
 * frame of cluster c sits near (c * 100, c * 100, ...) with small
 * deterministic jitter.
 */
FeatureMatrix
separableMatrix(std::size_t k, std::size_t perCluster, std::size_t dims)
{
    FeatureMatrix m(k * perCluster, dims - 1, 0);
    sim::Rng rng(42);
    for (std::size_t c = 0; c < k; ++c)
        for (std::size_t i = 0; i < perCluster; ++i)
            for (std::size_t d = 0; d < dims; ++d)
                m.at(c * perCluster + i, d) =
                    static_cast<double>(c) * 100.0 +
                    rng.uniform() * 2.0 - 1.0;
    return m;
}

} // namespace

TEST(Features, BuildScalesInvocationsByCharacteristicCost)
{
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 3);
    gpusim::SceneBinding binding(scene);
    gpusim::FunctionalSimulator functional(
        gpusim::GpuConfig::evaluationScaled(), binding);
    std::vector<gpusim::FrameActivity> activities;
    for (const gfx::FrameTrace &frame : scene.frames)
        activities.push_back(functional.simulate(frame));

    const FeatureMatrix m = buildFeatureMatrix(activities, scene);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.vsDims(), scene.numVertexShaders());
    EXPECT_EQ(m.fsDims(), scene.numFragmentShaders());
    EXPECT_EQ(m.cols(), m.vsDims() + m.fsDims() + 1);
    // Last column is the raw primitive count.
    EXPECT_DOUBLE_EQ(m.at(0, m.cols() - 1),
                     static_cast<double>(activities[0].primitives));
    // Feature columns are cost-scaled invocation counts, so each
    // column with invocations is >= the raw count (cost >= 1).
    double total = 0.0;
    for (std::size_t d = 0; d < m.cols(); ++d)
        total += m.at(0, d);
    EXPECT_GT(total, 0.0);
}

TEST(Features, GroupSumNormalizationHitsTargetWeights)
{
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 4);
    gpusim::SceneBinding binding(scene);
    gpusim::FunctionalSimulator functional(
        gpusim::GpuConfig::evaluationScaled(), binding);
    std::vector<gpusim::FrameActivity> activities;
    for (const gfx::FrameTrace &frame : scene.frames)
        activities.push_back(functional.simulate(frame));

    FeatureMatrix m = buildFeatureMatrix(activities, scene);
    const GroupWeights weights;
    normalize(m, NormalizationScheme::GroupSumWeights, weights);

    // Mean per-frame group sums must equal the Fig. 4 weights.
    double vsSum = 0.0, fsSum = 0.0, primSum = 0.0;
    for (std::size_t f = 0; f < m.rows(); ++f) {
        for (std::size_t d = 0; d < m.vsDims(); ++d)
            vsSum += m.at(f, d);
        for (std::size_t d = 0; d < m.fsDims(); ++d)
            fsSum += m.at(f, m.vsDims() + d);
        primSum += m.at(f, m.cols() - 1);
    }
    const double n = static_cast<double>(m.rows());
    EXPECT_NEAR(vsSum / n, weights.vs, 1e-9);
    EXPECT_NEAR(fsSum / n, weights.fs, 1e-9);
    EXPECT_NEAR(primSum / n, weights.prim, 1e-9);
}

TEST(Features, RandomProjectionPreservesSeparation)
{
    const FeatureMatrix m = separableMatrix(3, 10, 40);
    const FeatureMatrix p = randomProject(m, 8);
    ASSERT_EQ(p.rows(), m.rows());
    ASSERT_EQ(p.cols(), 8u);

    // Same-cluster distances stay well below cross-cluster ones.
    const SimilarityMatrix sim(p);
    double within = 0.0, across = 0.0;
    within = sim.at(0, 5);
    across = sim.at(0, 15);
    EXPECT_LT(within, across);
}

TEST(Features, ProjectionIsIdentityWhenAlreadySmall)
{
    const FeatureMatrix m = separableMatrix(2, 4, 6);
    const FeatureMatrix p = randomProject(m, 24);
    ASSERT_EQ(p.cols(), m.cols());
    EXPECT_DOUBLE_EQ(p.at(3, 2), m.at(3, 2));
}

TEST(Cluster, KMeansRecoversSeparableClusters)
{
    const FeatureMatrix m = separableMatrix(4, 16, 12);
    const KMeansResult result = kmeans(m, 4);
    ASSERT_EQ(result.k, 4u);
    ASSERT_EQ(result.labels.size(), m.rows());

    // Every synthetic cluster maps to exactly one k-means label.
    for (std::size_t c = 0; c < 4; ++c) {
        const std::uint32_t label = result.labels[c * 16];
        for (std::size_t i = 1; i < 16; ++i)
            EXPECT_EQ(result.labels[c * 16 + i], label)
                << "cluster " << c << " split";
    }
    for (std::size_t size : result.sizes)
        EXPECT_EQ(size, 16u);
    EXPECT_LT(result.inertia, m.rows() * 12.0)
        << "tight clusters -> small inertia";
}

TEST(Cluster, SelectionPrefersTheNaturalK)
{
    const FeatureMatrix m = separableMatrix(5, 12, 10);
    SelectorConfig config;
    config.maxClusters = 16;
    const SelectionResult selection = selectClustering(m, config);
    ASSERT_FALSE(selection.trace.empty());
    EXPECT_EQ(selection.chosen().k, 5u);
}

TEST(Cluster, RepresentativeWeightsCoverEveryFrame)
{
    const FeatureMatrix m = separableMatrix(3, 8, 6);
    const KMeansResult clustering = kmeans(m, 3);
    const RepresentativeSet reps = representativeSet(m, clustering);
    ASSERT_EQ(reps.size(), 3u);
    double totalWeight = 0.0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        EXPECT_LT(reps.frames[i], m.rows());
        totalWeight += reps.weights[i];
    }
    EXPECT_DOUBLE_EQ(totalWeight, static_cast<double>(m.rows()));

    // By brute force: each representative is the member nearest its
    // cluster's centroid and weighs the cluster's population.
    const std::size_t dims = m.cols();
    auto d2 = [&](std::size_t f, std::size_t cl) {
        double sum = 0.0;
        for (std::size_t d = 0; d < dims; ++d) {
            const double diff =
                m.row(f)[d] - clustering.centroids[cl * dims + d];
            sum += diff * diff;
        }
        return sum;
    };
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const std::size_t rep = reps.frames[i];
        const std::size_t cl = clustering.labels[rep];
        EXPECT_DOUBLE_EQ(reps.weights[i],
                         static_cast<double>(clustering.sizes[cl]));
        for (std::size_t f = 0; f < m.rows(); ++f) {
            if (clustering.labels[f] == cl) {
                EXPECT_LE(d2(rep, cl), d2(f, cl))
                    << "frame " << f << " is nearer cluster " << cl
                    << "'s centroid than representative " << rep;
            }
        }
    }
}

TEST(Similarity, MatrixIsSymmetricWithZeroDiagonal)
{
    const FeatureMatrix m = separableMatrix(2, 6, 5);
    const SimilarityMatrix sim(m);
    ASSERT_EQ(sim.frames(), m.rows());
    for (std::size_t a = 0; a < sim.frames(); ++a) {
        EXPECT_DOUBLE_EQ(sim.at(a, a), 0.0);
        for (std::size_t b = 0; b < sim.frames(); ++b)
            EXPECT_DOUBLE_EQ(sim.at(a, b), sim.at(b, a));
    }
    EXPECT_GT(sim.maxDistance(), 0.0);
    EXPECT_GT(sim.meanDistance(), 0.0);
    EXPECT_LE(sim.meanDistance(), sim.maxDistance());
}

TEST(Correlation, LinearTargetYieldsHighCoefficients)
{
    // Metric = 3*fs0 + fs1: the FS group fully explains the target,
    // the VS column is independent noise.
    const std::size_t n = 64;
    FeatureMatrix m(n, 1, 2);
    std::vector<double> metric(n);
    sim::Rng rng(7);
    for (std::size_t f = 0; f < n; ++f) {
        m.at(f, 0) = rng.uniform() * 10.0;
        m.at(f, 1) = rng.uniform() * 10.0;
        m.at(f, 2) = rng.uniform() * 10.0;
        metric[f] = 3.0 * m.at(f, 1) + m.at(f, 2);
    }
    // Make the PRIM column the metric itself for a perfect Pearson.
    for (std::size_t f = 0; f < n; ++f)
        m.at(f, 3) = metric[f];

    const CorrelationStudy study = correlationStudy(m, metric);
    EXPECT_GE(study.vscv, 0.0);
    EXPECT_LT(study.vscv, 0.5) << "noise column must not correlate";
    EXPECT_GT(study.fscv, 0.99);
    EXPECT_NEAR(study.prim, 1.0, 1e-6);
}

TEST(Pipeline, EndToEndReductionAndEstimation)
{
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 48);
    BenchmarkData data(scene, gpusim::GpuConfig::evaluationScaled(),
                       "");
    MegsimConfig config;
    config.selector.maxClusters = 12;
    MegsimPipeline pipeline(data, config);

    const MegsimRun run = pipeline.run();
    EXPECT_EQ(run.numFrames, 48u);
    EXPECT_GE(run.numRepresentatives(), 1u);
    EXPECT_LT(run.numRepresentatives(), 48u)
        << "must simulate fewer frames than the full run";
    EXPECT_GT(run.reductionFactor(), 1.0);

    const double err =
        pipeline.errorPercent(run, gpusim::Metric::Cycles);
    EXPECT_GE(err, 0.0);
    EXPECT_LT(err, 25.0) << "estimate should be in the ballpark";
}

TEST(Pipeline, CacheRoundTripsGroundTruth)
{
    const std::filesystem::path dir =
        msim::test::scratchDir() / "megsim_core_cache";
    std::filesystem::remove_all(dir);

    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, 6);
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();

    BenchmarkData first(scene, config, dir.string());
    const std::vector<gpusim::FrameStats> truth = first.frameStats();
    ASSERT_EQ(truth.size(), 6u);

    BenchmarkData second(scene, config, dir.string());
    const std::vector<gpusim::FrameStats> cached = second.frameStats();
    ASSERT_EQ(cached.size(), truth.size());
    for (std::size_t f = 0; f < truth.size(); ++f) {
        EXPECT_EQ(cached[f].cycles, truth[f].cycles) << "frame " << f;
        EXPECT_EQ(cached[f].dramBytes, truth[f].dramBytes);
    }
    std::filesystem::remove_all(dir);
}

TEST(Sampling, FindsASampleSizeMatchingTheTargetError)
{
    // A noisy series: random sampling needs a reasonable fraction of
    // the frames to hit a tight error bound.
    std::vector<double> values(512);
    sim::Rng rng(11);
    for (std::size_t i = 0; i < values.size(); ++i)
        values[i] = 100.0 + rng.uniform() * 50.0;

    RandomSamplingConfig config;
    config.trials = 200;
    const std::size_t m = findMatchingSampleCount(values, 1.0, config);
    EXPECT_GE(m, 1u);
    EXPECT_LE(m, values.size());

    const std::size_t loose =
        findMatchingSampleCount(values, 10.0, config);
    EXPECT_LE(loose, m) << "looser bound needs no more samples";
}

TEST(Data, CachePathSurvivesLongSceneNames)
{
    // The cache path used to be composed into a fixed 160-byte
    // buffer; a long scene name silently truncated the key suffix.
    gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 2);
    scene.name = std::string(200, 'x');
    const gpusim::GpuConfig config =
        gpusim::GpuConfig::evaluationScaled();
    BenchmarkData data(scene, config, "out/cache");

    const std::string stats = data.cachePath("stats");
    const std::string activity = data.cachePath("activity");
    EXPECT_NE(stats, activity);
    EXPECT_NE(stats.find(scene.name), std::string::npos);
    EXPECT_EQ(stats.substr(stats.size() - 10), "_stats.csv");

    // The 16-hex fingerprint key sits intact before the kind suffix.
    char keyHex[24];
    std::snprintf(keyHex, sizeof(keyHex), "%016llx",
                  static_cast<unsigned long long>(data.cacheKey()));
    EXPECT_NE(stats.find(std::string("_") + keyHex + "_stats.csv"),
              std::string::npos);
}

TEST(Data, CacheKeyIsPinnedAndComputedOnFirstRead)
{
    // The key names every cache artifact and checkpoint journal on
    // disk: these literals were printed before the key became lazy, and
    // must never move.
    const gfx::SceneTrace scene = workloads::buildBenchmark("hcr", 1.0, 3);
    const gpusim::GpuConfig config = gpusim::GpuConfig::evaluationScaled();
    const std::uint64_t pinned = 0x7efbf4720391b54bULL;

    const BenchmarkData named(scene, config, "cache");
    EXPECT_EQ(named.cacheKey(), pinned);
    EXPECT_EQ(named.checkpointStem(), "cache/hcr_3_v4_7efbf4720391b54b");

    BenchmarkData keyFirst(scene, config, "");
    EXPECT_EQ(keyFirst.cacheKey(), pinned);
    keyFirst.activities();
    EXPECT_EQ(keyFirst.cacheKey(), pinned);

    BenchmarkData passFirst(scene, config, "");
    passFirst.activities();
    EXPECT_EQ(passFirst.cacheKey(), pinned);

    // Four pool workers race to the first read of a fresh key.
    BenchmarkData fresh(scene, config, "");
    exec::Pool pool(4);
    std::latch together(4);
    std::vector<std::uint64_t> keys(4, 0);
    (void)pool.parallelFor(
        keys.size(),
        [&](std::size_t item, std::size_t) -> resilience::Expected<void> {
            together.arrive_and_wait();
            keys[item] = fresh.cacheKey();
            return {};
        },
        exec::Chunking::Static);
    EXPECT_EQ(keys, std::vector<std::uint64_t>(4, pinned));
}
