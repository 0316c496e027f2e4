#include "core/megsim.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "exec/pool.hh"
#include "sim/random.hh"

namespace msim::megsim
{

namespace
{

/**
 * Squared distance of two @p dims-long rows, summed in dim order. With
 * a @p limit it gives up once the partial sum exceeds it, checked after
 * every 4-dimension block: a rounded sum of non-negative terms never
 * decreases, so a result <= limit is the exact distance and a result
 * > limit proves the exact distance > limit.
 */
double
sqDist(const double *x, const double *c, std::size_t dims,
       double limit = std::numeric_limits<double>::infinity())
{
    double d2 = 0.0;
    std::size_t i = 0;
    for (; i + 4 <= dims; i += 4) {
        for (std::size_t j = i; j < i + 4; ++j) {
            const double diff = x[j] - c[j];
            d2 += diff * diff;
        }
        if (d2 > limit)
            return d2;
    }
    for (; i < dims; ++i) {
        const double diff = x[i] - c[i];
        d2 += diff * diff;
    }
    return d2;
}

/**
 * Hamerly's skip test, widened by a margin that dwarfs every rounding
 * error in the bounds: relative to the distances themselves, and to
 * @p drift (the summed centroid movement the lower bound has been
 * loosened by), which bounds the cancellation in lower -= moved.
 */
bool
separated(double upper, double lower, double drift)
{
    return upper + 1e-9 * (upper + lower + 2.0 * drift) < lower;
}

} // namespace

KMeansResult
kmeans(const FeatureMatrix &features, std::size_t k,
       const KMeansConfig &config)
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
    double *centroids = result.centroids.data();

    // k-means++ seeding. The per-frame distance updates fan out (each
    // frame owns its minD2 slot) and stop early once a distance can no
    // longer lower minD2; the weighted draw below stays a serial sum in
    // frame order so the result is bit-identical to a single-threaded
    // run.
    exec::Pool &pool = exec::Pool::global();
    sim::Rng rng(config.seed);
    std::vector<double> minD2(n, std::numeric_limits<double>::max());
    std::size_t first = rng.below(n);
    std::copy_n(features.row(first), dims, centroids);
    for (std::size_t cl = 1; cl < k; ++cl) {
        const double *latest = centroids + (cl - 1) * dims;
        (void)pool.parallelFor(
            n,
            [&](std::size_t f,
                std::size_t) -> resilience::Expected<void> {
                const double d2 =
                    sqDist(features.row(f), latest, dims, minD2[f]);
                if (d2 < minD2[f])
                    minD2[f] = d2;
                return {};
            },
            exec::Chunking::Static);
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
        std::copy_n(features.row(pick), dims, centroids + cl * dims);
    }

    // Lloyd iterations with Hamerly's bounds (SDM 2010), kept exact.
    // upper[f] bounds frame f's distance to its own centroid, lower[f]
    // its distance to every other one; each centroid update loosens
    // them by how far the centroids moved. A frame whose bounds stay
    // separated() keeps its label unexamined; any other frame tightens
    // upper with one exact distance and, failing that, rescans every
    // centroid. Labels equal the brute-force argmin (ties to the
    // lowest index) bit for bit — DESIGN.md §6e has the argument.
    // Each frame writes only its own label and bounds, so the step
    // fans out. The centroid update stays serial: its floating-point
    // sums are order-sensitive, and keeping them in frame order is
    // what makes centroids bit-identical.
    std::vector<double> upper(n, 0.0);
    std::vector<double> lower(n, 0.0);
    std::vector<double> moved(k, 0.0);
    std::vector<double> previous;
    std::size_t fastest = 0; // the centroid that moved furthest
    double maxMoved = 0.0;   // ... and how far
    double otherMoved = 0.0; // furthest move of any other centroid
    double drift = 0.0;      // maxMoved summed over every update
    std::vector<unsigned char> workerChanged(pool.workers(), 0);
    for (std::size_t iter = 0; iter < config.maxIterations; ++iter) {
        bool changed = iter == 0;
        std::fill(workerChanged.begin(), workerChanged.end(), 0);
        (void)pool.parallelFor(
            n,
            [&](std::size_t f,
                std::size_t w) -> resilience::Expected<void> {
                const double *x = features.row(f);
                std::size_t &label = result.labels[f];
                if (iter > 0) {
                    upper[f] += moved[label];
                    lower[f] -= label == fastest ? otherMoved : maxMoved;
                    if (separated(upper[f], lower[f], drift))
                        return {};
                    upper[f] = std::sqrt(
                        sqDist(x, centroids + label * dims, dims));
                    if (separated(upper[f], lower[f], drift))
                        return {};
                }
                // Rescan in ascending order, tracking the best and
                // second-best distance; a candidate is dropped once
                // its partial sum passes the second best.
                std::size_t best = 0;
                double best2 = std::numeric_limits<double>::max();
                double second2 = std::numeric_limits<double>::max();
                for (std::size_t cl = 0; cl < k; ++cl) {
                    const double d2 =
                        sqDist(x, centroids + cl * dims, dims, second2);
                    if (d2 < best2) {
                        second2 = best2;
                        best2 = d2;
                        best = cl;
                    } else if (d2 < second2) {
                        second2 = d2;
                    }
                }
                upper[f] = std::sqrt(best2);
                lower[f] = std::sqrt(second2);
                if (label != best) {
                    label = best;
                    workerChanged[w] = 1;
                }
                return {};
            },
            exec::Chunking::Static);
        for (unsigned char c : workerChanged)
            changed = changed || c != 0;
        if (!changed)
            break;

        previous = result.centroids;
        std::fill(result.centroids.begin(), result.centroids.end(),
                  0.0);
        std::fill(result.sizes.begin(), result.sizes.end(), 0);
        for (std::size_t f = 0; f < n; ++f) {
            const std::size_t cl = result.labels[f];
            const double *x = features.row(f);
            double *sum = centroids + cl * dims;
            ++result.sizes[cl];
            for (std::size_t c = 0; c < dims; ++c)
                sum[c] += x[c];
        }
        for (std::size_t cl = 0; cl < k; ++cl) {
            if (result.sizes[cl] == 0) {
                // Re-seed an emptied cluster on a random frame.
                const std::size_t f = rng.below(n);
                std::copy_n(features.row(f), dims,
                            centroids + cl * dims);
                continue;
            }
            const double inv =
                1.0 / static_cast<double>(result.sizes[cl]);
            for (std::size_t c = 0; c < dims; ++c)
                centroids[cl * dims + c] *= inv;
        }

        fastest = 0;
        maxMoved = 0.0;
        otherMoved = 0.0;
        for (std::size_t cl = 0; cl < k; ++cl) {
            moved[cl] = std::sqrt(sqDist(previous.data() + cl * dims,
                                         centroids + cl * dims, dims));
            if (moved[cl] > maxMoved) {
                otherMoved = maxMoved;
                maxMoved = moved[cl];
                fastest = cl;
            } else if (moved[cl] > otherMoved) {
                otherMoved = moved[cl];
            }
        }
        drift += maxMoved;
    }

    // Final bookkeeping: sizes and inertia for the final labels.
    std::fill(result.sizes.begin(), result.sizes.end(), 0);
    result.inertia = 0.0;
    for (std::size_t f = 0; f < n; ++f) {
        const std::size_t cl = result.labels[f];
        ++result.sizes[cl];
        result.inertia +=
            sqDist(features.row(f), centroids + cl * dims, dims);
    }
    return result;
}

double
bicScore(const FeatureMatrix &features, const KMeansResult &clustering)
{
    // x-means style BIC under identical spherical Gaussians: data
    // log-likelihood minus (parameters / 2) * log n.
    const double n = static_cast<double>(features.rows());
    const double d = static_cast<double>(features.cols());
    const double k = static_cast<double>(clustering.k);
    if (features.rows() == 0)
        return 0.0;

    const double denom =
        d * std::max(1.0, n - k);
    double variance = clustering.inertia / denom;
    variance = std::max(variance, 1e-12);

    double ll = 0.0;
    for (std::size_t cl = 0; cl < clustering.k; ++cl) {
        const double ni =
            static_cast<double>(clustering.sizes[cl]);
        if (ni <= 0.0)
            continue;
        ll += ni * std::log(ni) - ni * std::log(n) -
              ni * d / 2.0 *
                  std::log(2.0 * 3.141592653589793 * variance) -
              (ni - 1.0) * d / 2.0;
    }
    const double params = k * (d + 1.0);
    return ll - params / 2.0 * std::log(n);
}

SelectionResult
selectClustering(const FeatureMatrix &features,
                 const SelectorConfig &config)
{
    SelectionResult sel;
    const std::size_t maxK = std::min(
        std::max<std::size_t>(1, config.maxClusters),
        std::max<std::size_t>(1, features.rows()));

    // The sweep runs in waves of one pool width of k values, each
    // fanned out over its (k, restart) k-means runs, largest k first
    // so the longest runs start earliest. Every run writes only its
    // own slot. The serial walk below keeps each k's best restart
    // (restart order, strict >) and replays the exact patience rule,
    // so the trace and the chosen k are bit-identical to a serial
    // sweep (wave work past the stopping point is discarded). Each
    // run's own pool use degrades to serial inside the job.
    exec::Pool &pool = exec::Pool::global();
    const std::size_t wave = pool.workers();
    const std::size_t restarts = std::max<std::size_t>(1, config.restarts);
    double bestBic = -std::numeric_limits<double>::max();
    std::size_t decreases = 0;
    bool stopped = false;
    for (std::size_t base = 1; base <= maxK && !stopped;
         base += wave) {
        const std::size_t count = std::min(wave, maxK - base + 1);
        // runs[i * restarts + r] holds restart r of k = base + i.
        std::vector<SelectionStep> runs(count * restarts);
        (void)pool.parallelFor(
            runs.size(),
            [&](std::size_t item,
                std::size_t) -> resilience::Expected<void> {
                const std::size_t slot = runs.size() - 1 - item;
                const std::size_t k = base + slot / restarts;
                KMeansConfig kc = config.kmeans;
                kc.seed =
                    sim::hashMix(config.kmeans.seed, k, slot % restarts);
                runs[slot].result = kmeans(features, k, kc);
                runs[slot].bic = bicScore(features, runs[slot].result);
                return {};
            },
            exec::Chunking::Dynamic, 1);

        for (std::size_t i = 0; i < count && !stopped; ++i) {
            // Best-of-restarts guards the BIC curve against one
            // unlucky k-means++ draw ending the search prematurely.
            SelectionStep step;
            step.bic = -std::numeric_limits<double>::max();
            for (std::size_t r = 0; r < restarts; ++r) {
                SelectionStep &run = runs[i * restarts + r];
                if (run.bic > step.bic)
                    step = std::move(run);
            }
            sel.trace.push_back(std::move(step));
            if (sel.trace.back().bic > bestBic) {
                bestBic = sel.trace.back().bic;
                decreases = 0;
            } else if (++decreases > config.patience) {
                stopped = true;
            }
        }
    }

    // The spread threshold T picks the smallest k whose BIC clears
    // min + T * (max - min) of the explored range (Sec. III-F).
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

RepresentativeSet
representativeSet(const FeatureMatrix &features,
                  const KMeansResult &clustering)
{
    RepresentativeSet reps;
    const std::size_t dims = features.cols();
    for (std::size_t cl = 0; cl < clustering.k; ++cl) {
        std::size_t best = static_cast<std::size_t>(-1);
        double bestD2 = std::numeric_limits<double>::max();
        for (std::size_t f = 0; f < features.rows(); ++f) {
            if (clustering.labels[f] != cl)
                continue;
            const double d2 =
                sqDist(features.row(f),
                       clustering.centroids.data() + cl * dims, dims);
            if (d2 < bestD2) {
                bestD2 = d2;
                best = f;
            }
        }
        if (best == static_cast<std::size_t>(-1))
            continue; // empty cluster
        reps.frames.push_back(best);
        reps.weights.push_back(
            static_cast<double>(clustering.sizes[cl]));
    }
    return reps;
}

RankedClusters
rankClusterMembers(const FeatureMatrix &features,
                   const KMeansResult &clustering)
{
    RankedClusters ranked;
    const std::size_t dims = features.cols();
    for (std::size_t cl = 0; cl < clustering.k; ++cl) {
        std::vector<std::pair<double, std::size_t>> members;
        for (std::size_t f = 0; f < features.rows(); ++f) {
            if (clustering.labels[f] != cl)
                continue;
            members.emplace_back(
                sqDist(features.row(f),
                       clustering.centroids.data() + cl * dims, dims),
                f);
        }
        if (members.empty())
            continue; // empty cluster
        std::sort(members.begin(), members.end());
        std::vector<std::size_t> frames;
        frames.reserve(members.size());
        for (const auto &[d2, f] : members)
            frames.push_back(f);
        ranked.members.push_back(std::move(frames));
        ranked.weights.push_back(
            static_cast<double>(clustering.sizes[cl]));
    }
    return ranked;
}

} // namespace msim::megsim
