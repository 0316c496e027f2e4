/**
 * Reference equivalence of the clustering kernels: kmeans() and
 * selectClustering() must reproduce, bit for bit, a brute-force Lloyd
 * loop and a serial k-sweep kept here as the specification. The inputs
 * target what the triangle-pruned assignment, the seed-grouped
 * k-means++ and the ordered (k, restart) sweep job could get wrong:
 * duplicated rows, exact ties, midpoint ties at exactly the rescan
 * ball's edge, k at or above the distinct row count (empty-cluster
 * reseeds), one row per cluster, frames nearest the never-measured last
 * seed, k = 1 and 2 (no or one neighbour for the half-gap test), tiny
 * and huge feature scales, dims that are not a multiple of 4, matrices
 * large enough for bound skips, and sweeps that stop on patience 0 or 1
 * far below the cap (runs past the stop in flight), 1 or 3 restarts, a
 * cap of 7 or 13, and a selection made inside a pool job (the pool's
 * serial path) — at 1, 2 and 8 pool threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/megsim.hh"
#include "exec/pool.hh"
#include "sim/random.hh"
#include "workloads/workloads.hh"

using namespace msim;
using namespace msim::megsim;

namespace
{

double
refSqDist(const FeatureMatrix &m, std::size_t frame,
          const std::vector<double> &centroids, std::size_t cluster)
{
    double d2 = 0.0;
    for (std::size_t c = 0; c < m.cols(); ++c) {
        const double diff =
            m.at(frame, c) - centroids[cluster * m.cols() + c];
        d2 += diff * diff;
    }
    return d2;
}

double
refGap(const std::vector<double> &centroids, std::size_t dims,
       std::size_t a, std::size_t c)
{
    double d2 = 0.0;
    for (std::size_t i = 0; i < dims; ++i) {
        const double diff = centroids[a * dims + i] - centroids[c * dims + i];
        d2 += diff * diff;
    }
    return std::sqrt(d2);
}

/**
 * Serial brute-force k-means: the specification kmeans() must match.
 * @p edgeTies, when given, counts the reassignments after iteration 0
 * that only the lowest-index tie rule decides at exactly the rescan
 * ball's edge: the frame sits at the midpoint of its old centroid and
 * a lower-index one, whose gap is exactly twice the frame's distance.
 */
KMeansResult
referenceKMeans(const FeatureMatrix &features, std::size_t k,
                const KMeansConfig &config, std::size_t *edgeTies = nullptr)
{
    const std::size_t n = features.rows();
    const std::size_t dims = features.cols();
    k = std::max<std::size_t>(1, std::min(k, n));

    KMeansResult result;
    result.k = k;
    result.dims = dims;
    result.labels.assign(n, 0);
    result.sizes.assign(k, 0);
    result.centroids.assign(k * dims, 0.0);
    if (n == 0)
        return result;

    sim::Rng rng(config.seed);
    std::vector<double> minD2(n, std::numeric_limits<double>::max());
    const std::size_t first = rng.below(n);
    for (std::size_t c = 0; c < dims; ++c)
        result.centroids[c] = features.at(first, c);
    for (std::size_t cl = 1; cl < k; ++cl) {
        for (std::size_t f = 0; f < n; ++f) {
            const double d2 =
                refSqDist(features, f, result.centroids, cl - 1);
            if (d2 < minD2[f])
                minD2[f] = d2;
        }
        double total = 0.0;
        for (std::size_t f = 0; f < n; ++f)
            total += minD2[f];
        std::size_t pick = 0;
        if (total > 0.0) {
            double target = rng.uniform() * total;
            for (std::size_t f = 0; f < n; ++f) {
                target -= minD2[f];
                if (target <= 0.0) {
                    pick = f;
                    break;
                }
            }
        } else {
            pick = rng.below(n);
        }
        for (std::size_t c = 0; c < dims; ++c)
            result.centroids[cl * dims + c] = features.at(pick, c);
    }

    for (std::size_t iter = 0; iter < config.maxIterations; ++iter) {
        bool changed = iter == 0;
        for (std::size_t f = 0; f < n; ++f) {
            std::size_t best = 0;
            double bestD2 = std::numeric_limits<double>::max();
            for (std::size_t cl = 0; cl < k; ++cl) {
                const double d2 =
                    refSqDist(features, f, result.centroids, cl);
                if (d2 < bestD2) {
                    bestD2 = d2;
                    best = cl;
                }
            }
            const std::size_t old = result.labels[f];
            if (edgeTies && iter > 0 && best < old &&
                refSqDist(features, f, result.centroids, old) == bestD2 &&
                refGap(result.centroids, dims, best, old) ==
                    2.0 * std::sqrt(bestD2))
                ++*edgeTies;
            if (result.labels[f] != best) {
                result.labels[f] = best;
                changed = true;
            }
        }
        if (!changed)
            break;

        std::fill(result.centroids.begin(), result.centroids.end(),
                  0.0);
        std::fill(result.sizes.begin(), result.sizes.end(), 0);
        for (std::size_t f = 0; f < n; ++f) {
            const std::size_t cl = result.labels[f];
            ++result.sizes[cl];
            for (std::size_t c = 0; c < dims; ++c)
                result.centroids[cl * dims + c] += features.at(f, c);
        }
        for (std::size_t cl = 0; cl < k; ++cl) {
            if (result.sizes[cl] == 0) {
                const std::size_t f = rng.below(n);
                for (std::size_t c = 0; c < dims; ++c)
                    result.centroids[cl * dims + c] =
                        features.at(f, c);
                continue;
            }
            const double inv =
                1.0 / static_cast<double>(result.sizes[cl]);
            for (std::size_t c = 0; c < dims; ++c)
                result.centroids[cl * dims + c] *= inv;
        }
    }

    std::fill(result.sizes.begin(), result.sizes.end(), 0);
    result.inertia = 0.0;
    for (std::size_t f = 0; f < n; ++f) {
        ++result.sizes[result.labels[f]];
        result.inertia +=
            refSqDist(features, f, result.centroids, result.labels[f]);
    }
    return result;
}

/** Serial k = 1, 2, ... sweep: the specification of selectClustering(). */
SelectionResult
referenceSelect(const FeatureMatrix &features, const SelectorConfig &config)
{
    SelectionResult sel;
    const std::size_t maxK = std::min(
        std::max<std::size_t>(1, config.maxClusters),
        std::max<std::size_t>(1, features.rows()));
    const std::size_t restarts = std::max<std::size_t>(1, config.restarts);
    double bestBic = -std::numeric_limits<double>::max();
    std::size_t decreases = 0;
    for (std::size_t k = 1; k <= maxK; ++k) {
        SelectionStep step;
        step.bic = -std::numeric_limits<double>::max();
        for (std::size_t r = 0; r < restarts; ++r) {
            KMeansConfig kc = config.kmeans;
            kc.seed = sim::hashMix(config.kmeans.seed, k, r);
            KMeansResult attempt = referenceKMeans(features, k, kc);
            const double bic = bicScore(features, attempt);
            if (bic > step.bic) {
                step.bic = bic;
                step.result = std::move(attempt);
            }
        }
        sel.trace.push_back(std::move(step));
        if (sel.trace.back().bic > bestBic) {
            bestBic = sel.trace.back().bic;
            decreases = 0;
        } else if (++decreases > config.patience) {
            break;
        }
    }

    double minBic = sel.trace.front().bic;
    double maxBic = sel.trace.front().bic;
    for (const SelectionStep &step : sel.trace) {
        minBic = std::min(minBic, step.bic);
        maxBic = std::max(maxBic, step.bic);
    }
    const double cut = minBic + config.threshold * (maxBic - minBic);
    sel.chosenIndex = sel.trace.size() - 1;
    for (std::size_t i = 0; i < sel.trace.size(); ++i) {
        if (sel.trace[i].bic >= cut) {
            sel.chosenIndex = i;
            break;
        }
    }
    return sel;
}

std::vector<std::uint64_t>
bits(const std::vector<double> &values)
{
    std::vector<std::uint64_t> out;
    out.reserve(values.size());
    for (double v : values)
        out.push_back(std::bit_cast<std::uint64_t>(v));
    return out;
}

void
expectSameKMeans(const KMeansResult &got, const KMeansResult &want,
                 const std::string &what)
{
    EXPECT_EQ(got.k, want.k) << what;
    EXPECT_EQ(got.dims, want.dims) << what;
    EXPECT_EQ(got.labels, want.labels) << what;
    EXPECT_EQ(got.sizes, want.sizes) << what;
    EXPECT_EQ(bits(got.centroids), bits(want.centroids)) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.inertia),
              std::bit_cast<std::uint64_t>(want.inertia))
        << what;
}

void
expectSameSelection(const SelectionResult &got,
                    const SelectionResult &want, const std::string &what)
{
    ASSERT_EQ(got.trace.size(), want.trace.size()) << what;
    EXPECT_EQ(got.chosenIndex, want.chosenIndex) << what;
    for (std::size_t i = 0; i < want.trace.size(); ++i) {
        const std::string step = what + " k=" + std::to_string(i + 1);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.trace[i].bic),
                  std::bit_cast<std::uint64_t>(want.trace[i].bic))
            << step;
        expectSameKMeans(got.trace[i].result, want.trace[i].result, step);
    }
}

FeatureMatrix
randomMatrix(std::size_t rows, std::size_t dims, std::uint64_t seed)
{
    FeatureMatrix m(rows, dims - 1, 0);
    sim::Rng rng(seed);
    for (std::size_t f = 0; f < rows; ++f)
        for (std::size_t d = 0; d < dims; ++d)
            m.at(f, d) = rng.uniform();
    return m;
}

/** @p blobs noisy clusters of uneven size and spread. */
FeatureMatrix
blobMatrix(std::size_t rows, std::size_t dims, std::size_t blobs,
           std::uint64_t seed)
{
    FeatureMatrix m(rows, dims - 1, 0);
    sim::Rng rng(seed);
    std::vector<double> centers(blobs * dims);
    for (double &c : centers)
        c = rng.uniform() * 10.0;
    for (std::size_t f = 0; f < rows; ++f) {
        // The min of two draws skews the sizes toward low blobs.
        const std::size_t blob =
            std::min(rng.below(blobs), rng.below(blobs));
        const double spread = 0.2 + 0.1 * static_cast<double>(blob % 4);
        for (std::size_t d = 0; d < dims; ++d)
            m.at(f, d) = centers[blob * dims + d] +
                         (rng.uniform() * 2.0 - 1.0) * spread;
    }
    return m;
}

/** @p distinct random points, each repeated to fill @p rows. */
FeatureMatrix
duplicatedMatrix(std::size_t rows, std::size_t distinct, std::size_t dims)
{
    const FeatureMatrix points = randomMatrix(distinct, dims, 99);
    FeatureMatrix m(rows, dims - 1, 0);
    for (std::size_t f = 0; f < rows; ++f)
        for (std::size_t d = 0; d < dims; ++d)
            m.at(f, d) = points.at((f * 7) % distinct, d);
    return m;
}

/** Small-integer lattice points: centroids land on exact midpoints. */
FeatureMatrix
latticeMatrix(std::size_t rows, std::size_t dims)
{
    FeatureMatrix m(rows, dims - 1, 0);
    sim::Rng rng(5);
    for (std::size_t f = 0; f < rows; ++f)
        for (std::size_t d = 0; d < dims; ++d)
            m.at(f, d) = static_cast<double>(rng.below(3));
    return m;
}

/**
 * Every point of the integer grid {0..side-1}^dims, once: centroids
 * are means of evenly spaced points, so frames land on the exact
 * midpoint of two centroids.
 */
FeatureMatrix
gridMatrix(std::size_t side, std::size_t dims)
{
    std::size_t rows = 1;
    for (std::size_t d = 0; d < dims; ++d)
        rows *= side;
    FeatureMatrix m(rows, dims - 1, 0);
    for (std::size_t f = 0; f < rows; ++f) {
        std::size_t rest = f;
        for (std::size_t d = 0; d < dims; ++d, rest /= side)
            m.at(f, d) = static_cast<double>(rest % side);
    }
    return m;
}

FeatureMatrix
scaled(FeatureMatrix m, double factor)
{
    for (std::size_t f = 0; f < m.rows(); ++f)
        for (std::size_t d = 0; d < m.cols(); ++d)
            m.at(f, d) *= factor;
    return m;
}

/**
 * How many frames are strictly nearest the last k-means++ seed, the
 * one seeding draws but never measures (the seeds are the centroids of
 * a zero-iteration run).
 */
std::size_t
nearestLastSeed(const FeatureMatrix &features, std::size_t k,
                const KMeansConfig &config)
{
    KMeansConfig seedsOnly = config;
    seedsOnly.maxIterations = 0;
    const KMeansResult seeds = referenceKMeans(features, k, seedsOnly);
    std::size_t count = 0;
    for (std::size_t f = 0; f < features.rows(); ++f) {
        const double last = refSqDist(features, f, seeds.centroids, k - 1);
        bool nearest = true;
        for (std::size_t cl = 0; cl + 1 < k; ++cl)
            nearest = nearest &&
                      refSqDist(features, f, seeds.centroids, cl) > last;
        count += nearest ? 1 : 0;
    }
    return count;
}

FeatureMatrix
projectedHcr(std::size_t frames)
{
    const gfx::SceneTrace scene =
        workloads::buildBenchmark("hcr", 1.0, frames);
    BenchmarkData data(scene, gpusim::GpuConfig::evaluationScaled(), "");
    MegsimPipeline pipeline(data);
    return pipeline.projectedFeatures();
}

/** Runs @p body at 1, 2 and 8 pool threads, restoring the pool size. */
template <typename Body>
void
atThreadCounts(Body body)
{
    const std::size_t saved = exec::Pool::configuredThreads();
    for (std::size_t threads : {1u, 2u, 8u}) {
        exec::Pool::setConfiguredThreads(threads);
        body("threads=" + std::to_string(threads));
    }
    exec::Pool::setConfiguredThreads(saved);
}

struct KMeansCase
{
    std::string name;
    FeatureMatrix matrix;
    std::vector<std::size_t> ks;
};

/**
 * kmeans() against the reference, full-length and truncated; @p edgeTies
 * as in referenceKMeans().
 */
void
expectMatchesReference(const FeatureMatrix &matrix, std::size_t k,
                       std::uint64_t seed, const std::string &what,
                       std::size_t *edgeTies = nullptr)
{
    KMeansConfig config;
    config.seed = seed;
    const KMeansResult want = referenceKMeans(matrix, k, config, edgeTies);
    // A truncated run exits with centroids one update past its labels;
    // it must match too.
    KMeansConfig shortRun = config;
    shortRun.maxIterations = 3;
    const KMeansResult wantShort = referenceKMeans(matrix, k, shortRun);
    atThreadCounts([&](const std::string &threads) {
        const std::string label = what + " k=" + std::to_string(k) +
                                  " seed=" + std::to_string(seed) + " " +
                                  threads;
        expectSameKMeans(kmeans(matrix, k, config), want, label);
        expectSameKMeans(kmeans(matrix, k, shortRun), wantShort,
                         label + " short");
    });
}

} // namespace

TEST(ClusterReference, KMeansMatchesBruteForceLloyd)
{
    std::vector<KMeansCase> cases;
    cases.push_back({"duplicated", duplicatedMatrix(120, 9, 5), {3, 8}});
    cases.push_back({"ties", latticeMatrix(90, 3), {2, 4, 7}});
    cases.push_back({"k>=distinct", duplicatedMatrix(40, 6, 4), {6, 9, 16}});
    for (std::size_t dims : {1u, 3u, 5u, 24u, 25u})
        cases.push_back({"dims=" + std::to_string(dims),
                         blobMatrix(300, dims, 6, dims), {1, 2, 5, 11}});
    cases.push_back({"n=2000", blobMatrix(2000, 24, 12, 3), {12, 20}});
    // Scale moves every distance and bound by the same factor; the
    // pruning margins are relative, so neither scale may change a label.
    for (double factor : {1e-6, 1e6})
        cases.push_back({"scale=" + std::to_string(factor),
                         scaled(blobMatrix(300, 7, 6, 11), factor),
                         {1, 2, 6, 13}});

    for (const KMeansCase &c : cases)
        for (std::size_t k : c.ks)
            for (std::uint64_t seed : {1u, 17u})
                expectMatchesReference(c.matrix, k, seed, c.name);
}

TEST(ClusterReference, MidpointTiesAtTheBallEdgeGoToTheLowestIndex)
{
    // A frame at the exact midpoint of its centroid a and a lower-index
    // centroid c is as near c as a, and c sits exactly at the edge of
    // the rescan ball (gap == 2 u): the brute force moves the frame to
    // c, so the ball must include its edge and the scan must break the
    // d² tie by index. The inputs are asserted to hit that case.
    struct Grid
    {
        std::size_t side;
        std::size_t dims;
    };
    std::size_t edgeTies = 0;
    for (const Grid &g : {Grid{8, 1}, Grid{12, 1}, Grid{6, 2}, Grid{8, 2}}) {
        const FeatureMatrix m = gridMatrix(g.side, g.dims);
        const std::string what = "grid " + std::to_string(g.side) + "^" +
                                 std::to_string(g.dims);
        for (std::size_t k : {2u, 3u, 4u, 6u})
            for (std::uint64_t seed = 1; seed <= 16; ++seed)
                expectMatchesReference(m, k, seed, what, &edgeTies);
    }
    EXPECT_GE(edgeTies, 10u) << "too few frames tied at the ball's edge";
}

TEST(ClusterReference, OneRowPerClusterAndTheUnmeasuredLastSeed)
{
    // k = n and k = n - 1 on distinct rows: every row is drawn as a
    // seed (k = n), so the last seed — which seeding draws but never
    // measures — is some frame's nearest centroid at iteration 0, and
    // iteration 0's rescan must find it. The blob inputs are asserted
    // to have frames nearest that seed as well.
    const FeatureMatrix distinct = randomMatrix(24, 5, 7);
    for (std::size_t k : {distinct.rows(), distinct.rows() - 1}) {
        for (std::uint64_t seed : {1u, 17u, 29u}) {
            KMeansConfig config;
            config.seed = seed;
            EXPECT_GT(nearestLastSeed(distinct, k, config), 0u)
                << "k=" << k << " seed=" << seed;
            expectMatchesReference(distinct, k, seed, "distinct rows");
        }
    }
    const FeatureMatrix blobs = blobMatrix(400, 9, 8, 21);
    for (std::size_t k : {2u, 3u, 8u, 15u}) {
        for (std::uint64_t seed : {1u, 17u}) {
            KMeansConfig config;
            config.seed = seed;
            EXPECT_GT(nearestLastSeed(blobs, k, config), 0u)
                << "k=" << k << " seed=" << seed;
            expectMatchesReference(blobs, k, seed, "last seed");
        }
    }
}

TEST(ClusterReference, SelectionMatchesSerialSweep)
{
    struct SweepCase
    {
        std::string name;
        FeatureMatrix matrix;
        SelectorConfig config;
        /** The spec's sweep ends on patience, short of the cap. */
        bool stopsEarly = false;
        /** Select from inside a pool job: the pool's serial path. */
        bool nested = false;
    };
    const auto selector = [](std::size_t maxClusters,
                             std::size_t patience = 3,
                             std::size_t restarts = 3) {
        SelectorConfig config;
        config.maxClusters = maxClusters;
        config.patience = patience;
        config.restarts = restarts;
        return config;
    };
    std::vector<SweepCase> cases;
    cases.push_back({"duplicated", duplicatedMatrix(60, 8, 5), selector(16)});
    cases.push_back({"ties", latticeMatrix(80, 3), selector(16)});
    for (std::size_t dims : {1u, 3u, 5u, 24u, 25u})
        cases.push_back({"dims=" + std::to_string(dims),
                         blobMatrix(200, dims, 5, 40 + dims), selector(24)});
    cases.push_back({"n=2000", blobMatrix(2000, 24, 6, 8), selector(20)});
    cases.push_back({"hcr", projectedHcr(320), selector(64)});
    // Three blobs put the BIC peak early, so a short patience stops
    // the sweep far below the cap while later runs are in flight.
    const FeatureMatrix early = blobMatrix(400, 6, 3, 21);
    for (std::size_t patience : {0u, 1u})
        cases.push_back({"patience=" + std::to_string(patience), early,
                         selector(32, patience), true});
    for (std::size_t restarts : {1u, 3u})
        cases.push_back({"restarts=" + std::to_string(restarts),
                         blobMatrix(300, 5, 4, 31), selector(24, 3, restarts)});
    for (std::size_t cap : {7u, 13u})
        cases.push_back({"maxClusters=" + std::to_string(cap),
                         blobMatrix(300, 5, 9, 33), selector(cap)});
    cases.push_back({"nested", early, selector(32, 1), true, true});

    for (const SweepCase &c : cases) {
        const SelectionResult want = referenceSelect(c.matrix, c.config);
        if (c.stopsEarly) {
            EXPECT_LT(want.trace.size(), c.config.maxClusters) << c.name;
        }
        atThreadCounts([&](const std::string &threads) {
            const std::string what = c.name + " " + threads;
            if (!c.nested) {
                expectSameSelection(selectClustering(c.matrix, c.config),
                                    want, what);
                return;
            }
            // Two items, so the selections run inside a real pool job
            // whenever the pool has more than one thread.
            std::vector<SelectionResult> got(2);
            (void)exec::Pool::global().parallelFor(
                got.size(),
                [&](std::size_t item,
                    std::size_t) -> resilience::Expected<void> {
                    got[item] = selectClustering(c.matrix, c.config);
                    return {};
                });
            for (std::size_t i = 0; i < got.size(); ++i)
                expectSameSelection(got[i], want,
                                    what + " item=" + std::to_string(i));
        });
    }
}
