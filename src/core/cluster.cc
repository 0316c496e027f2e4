#include "core/megsim.hh"

#include <algorithm>
#include <atomic>
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

/**
 * The triangle-inequality exclusion: a centroid at @p gap from a
 * frame's own centroid, with @p radius >= the frame's distance to that
 * own centroid, is farther from the frame than the own centroid is.
 * The 1e-9 relative margin dwarfs the rounding of any distance here,
 * so the excluded centroid's squared distance is strictly larger as a
 * double too: it can neither win nor tie.
 */
bool
outside(double gap, double radius)
{
    return gap > 2.0 * radius * (1.0 + 1e-9);
}

/**
 * Distances between every pair of centroids and, per centroid, the
 * other centroids nearest first. update() re-sorts each order by
 * insertion, starting from the previous iteration's: the order barely
 * changes between Lloyd iterations, so the sort is near-linear.
 */
class CentroidGaps
{
  public:
    explicit CentroidGaps(std::size_t k)
        : k_(k), gap_(k * k, 0.0), order_(k * (k - 1)), half_(k, 0.0)
    {
        for (std::size_t a = 0; a < k; ++a) {
            std::size_t *row = order_.data() + a * (k - 1);
            for (std::size_t c = 0; c < k; ++c)
                if (c != a)
                    *row++ = c;
        }
    }

    void
    update(const double *centroids, std::size_t dims)
    {
        for (std::size_t a = 0; a < k_; ++a)
            for (std::size_t c = a + 1; c < k_; ++c)
                gap_[a * k_ + c] = gap_[c * k_ + a] =
                    std::sqrt(sqDist(centroids + a * dims,
                                     centroids + c * dims, dims));
        if (k_ < 2)
            return; // a lone centroid has no neighbours; half stays 0
        for (std::size_t a = 0; a < k_; ++a) {
            const double *gaps = gap_.data() + a * k_;
            std::size_t *row = order_.data() + a * (k_ - 1);
            for (std::size_t j = 1; j + 1 < k_; ++j) {
                const std::size_t c = row[j];
                std::size_t i = j;
                for (; i > 0 && gaps[row[i - 1]] > gaps[c]; --i)
                    row[i] = row[i - 1];
                row[i] = c;
            }
            half_[a] = 0.5 * gaps[row[0]];
        }
    }

    std::size_t size() const { return k_; }

    double gap(std::size_t a, std::size_t c) const { return gap_[a * k_ + c]; }

    /** The k - 1 centroids other than @p a, nearest first. */
    const std::size_t *
    neighbours(std::size_t a) const
    {
        return order_.data() + a * (k_ - 1);
    }

    /** Half the gap from @p a to its nearest other centroid (0 if none). */
    double half(std::size_t a) const { return half_[a]; }

  private:
    std::size_t k_;
    std::vector<double> gap_;
    std::vector<std::size_t> order_;
    std::vector<double> half_;
};

/**
 * k-means++ seeding into @p centroids. Leaves in @p nearest each
 * frame's nearest seed among the first k - 1 (ties to the lowest
 * index) and in @p minD2 the exact squared distance to it; the last
 * seed is drawn, never measured. Frames are grouped by nearest seed,
 * and each group's radius is the largest distance of a member to its
 * seed: when a seed is added, a group it lies outside() of is skipped
 * whole, and so is any single frame it lies outside() of — their minD2
 * could not drop. A measured distance still gives up once it exceeds
 * the frame's minD2. The weighted draw stays a serial sum in frame
 * order.
 */
void
seedPlusPlus(const FeatureMatrix &features, std::size_t k, sim::Rng &rng,
             double *centroids, std::vector<std::size_t> &nearest,
             std::vector<double> &minD2)
{
    const std::size_t n = features.rows();
    const std::size_t dims = features.cols();
    std::vector<double> radius2(k, 0.0); // each group's radius, squared
    std::vector<double> seedGap(k, 0.0);  // from each seed to the latest
    std::vector<unsigned char> skip(k, 0);
    std::copy_n(features.row(rng.below(n)), dims, centroids);
    for (std::size_t cl = 1; cl < k; ++cl) {
        const std::size_t latest = cl - 1;
        const double *seed = centroids + latest * dims;
        for (std::size_t g = 0; g < latest; ++g) {
            seedGap[g] = std::sqrt(sqDist(centroids + g * dims, seed, dims));
            skip[g] = outside(seedGap[g], std::sqrt(radius2[g]));
            if (!skip[g])
                radius2[g] = 0.0; // re-measured from its members below
        }
        // Before its first pass every frame sits in group 0 unmeasured
        // (minD2 = max), so seed 0 is measured against all of them.
        radius2[latest] = 0.0;
        for (std::size_t f = 0; f < n; ++f) {
            std::size_t &g = nearest[f];
            if (skip[g])
                continue;
            if (!outside(seedGap[g], std::sqrt(minD2[f]))) {
                const double d2 =
                    sqDist(features.row(f), seed, dims, minD2[f]);
                if (d2 < minD2[f]) {
                    minD2[f] = d2;
                    g = latest;
                }
            }
            radius2[g] = std::max(radius2[g], minD2[f]);
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
        std::copy_n(features.row(pick), dims, centroids + cl * dims);
    }
}

/**
 * The rescan of a frame @p x whose bounds could not prove its label:
 * @p own is its current centroid, @p own2 the exact squared distance
 * to it. Only own's neighbours not outside() the radius √own2 can be as
 * near, so just those are measured, nearest first, keeping the least
 * (d², index) — ties go to the lowest index as in an ascending scan —
 * and the second-least d²; a candidate is dropped once its partial sum
 * passes the second best. Returns the nearest centroid and resets the
 * frame's bounds: @p upper to its distance, @p lower to the least of
 * the second best's and the first excluded gap - √own2.
 */
std::size_t
ballRescan(const double *x, const double *centroids, std::size_t dims,
           const CentroidGaps &gaps, std::size_t own, double own2,
           double &upper, double &lower)
{
    const double radius = std::sqrt(own2);
    const std::size_t *order = gaps.neighbours(own);
    std::size_t best = own;
    double best2 = own2;
    double second2 = std::numeric_limits<double>::max();
    double beyond = std::numeric_limits<double>::max();
    for (std::size_t j = 0; j + 1 < gaps.size(); ++j) {
        const std::size_t cl = order[j];
        const double gap = gaps.gap(own, cl);
        if (outside(gap, radius)) {
            beyond = gap - radius;
            break;
        }
        const double d2 = sqDist(x, centroids + cl * dims, dims, second2);
        if (d2 < best2 || (d2 == best2 && cl < best)) {
            second2 = best2;
            best2 = d2;
            best = cl;
        } else if (d2 < second2) {
            second2 = d2;
        }
    }
    upper = std::sqrt(best2);
    lower = std::min(std::sqrt(second2), beyond);
    return best;
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

    // Seeding leaves every frame labelled with its nearest seed and
    // minD2 holding the squared distance to it (k = 1 measures
    // nothing: minD2 stays max, an upper bound with nothing to beat).
    sim::Rng rng(config.seed);
    std::vector<double> minD2(n, std::numeric_limits<double>::max());
    seedPlusPlus(features, k, rng, centroids, result.labels, minD2);

    // Lloyd iterations that never compute a distance the triangle
    // inequality proves irrelevant, yet give the brute-force argmin
    // (ties to the lowest index) bit for bit — DESIGN.md §6e has the
    // argument. upper[f] bounds frame f's distance to its own centroid
    // a, lower[f] its distance to every other one (Hamerly, SDM 2010);
    // each centroid update loosens them by how far the centroids
    // moved. A frame is skipped while upper stays separated() from
    // max(lower, half the gap from a to its nearest other centroid);
    // otherwise upper is tightened with one exact distance and the
    // test repeats; failing that, the frame is rescanned within the
    // ball around a (Elkan, ICML 2003; Newling & Fleuret, ICML 2016).
    // Iteration 0 starts every frame at its nearest seed, at the
    // distance seeding measured; the same ball rescan then covers the
    // last seed, which seeding never measured, and sets the bounds.
    // The kernel is serial: the BIC sweep runs many of these at once.
    // The centroid update's floating-point sums are order-sensitive,
    // and keeping them in frame order is what makes centroids
    // bit-identical.
    std::vector<double> upper(n, 0.0);
    std::vector<double> lower(n, 0.0);
    std::vector<double> moved(k, 0.0);
    std::vector<double> previous;
    CentroidGaps gaps(k);
    std::size_t fastest = 0; // the centroid that moved furthest
    double maxMoved = 0.0;   // ... and how far
    double otherMoved = 0.0; // furthest move of any other centroid
    double drift = 0.0;      // maxMoved summed over every update
    for (std::size_t iter = 0; iter < config.maxIterations; ++iter) {
        bool changed = iter == 0;
        gaps.update(centroids, dims);
        for (std::size_t f = 0; f < n; ++f) {
            const double *x = features.row(f);
            std::size_t &label = result.labels[f];
            double own2 = minD2[f]; // iteration 0: the nearest seed's
            if (iter > 0) {
                upper[f] += moved[label];
                lower[f] -= label == fastest ? otherMoved : maxMoved;
                const double bound = std::max(lower[f], gaps.half(label));
                if (separated(upper[f], bound, drift))
                    continue;
                own2 = sqDist(x, centroids + label * dims, dims);
                upper[f] = std::sqrt(own2);
                if (separated(upper[f], bound, drift))
                    continue;
            }
            const std::size_t best = ballRescan(
                x, centroids, dims, gaps, label, own2, upper[f], lower[f]);
            if (label != best) {
                label = best;
                changed = true;
            }
        }
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

    // The sweep is one ordered pool job over every (k, restart) run
    // in ascending k: item i is restart i % restarts of k = 1 + i /
    // restarts, one serial kmeans() seeded as a serial sweep seeds it.
    // Commits run on the calling thread in item order: each k keeps
    // its best restart (restart order, strict >) and replays the exact
    // patience rule, so the trace and the chosen k are bit-identical
    // to a serial sweep. A stop publishes the first item past it, so
    // runs not yet started are skipped; runs already past it are never
    // folded. Nested inside a pool job the sweep runs serially and
    // commits after every item, stopping where a serial sweep stops.
    const std::size_t restarts = std::max<std::size_t>(1, config.restarts);
    std::atomic<std::size_t> stop{maxK * restarts};
    double bestBic = -std::numeric_limits<double>::max();
    std::size_t decreases = 0;
    SelectionStep step;
    (void)exec::Pool::global().parallelMapOrdered<SelectionStep>(
        maxK * restarts,
        [&](std::size_t item,
            std::size_t) -> resilience::Expected<SelectionStep> {
            SelectionStep run;
            if (item >= stop.load())
                return run;
            const std::size_t k = 1 + item / restarts;
            KMeansConfig kc = config.kmeans;
            kc.seed = sim::hashMix(config.kmeans.seed, k, item % restarts);
            run.result = kmeans(features, k, kc);
            run.bic = bicScore(features, run.result);
            return run;
        },
        [&](std::size_t item, SelectionStep &&run) {
            if (item >= stop.load())
                return;
            const std::size_t r = item % restarts;
            // Best-of-restarts guards the BIC curve against one
            // unlucky k-means++ draw ending the search prematurely.
            if (r == 0) {
                step = SelectionStep{};
                step.bic = -std::numeric_limits<double>::max();
            }
            if (run.bic > step.bic)
                step = std::move(run);
            if (r + 1 < restarts)
                return;
            sel.trace.push_back(std::move(step));
            if (sel.trace.back().bic > bestBic) {
                bestBic = sel.trace.back().bic;
                decreases = 0;
            } else if (++decreases > config.patience) {
                stop.store(item + 1);
            }
        });

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
