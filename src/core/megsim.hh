/**
 * @file
 * The MEGsim methodology (Sec. III): frame characterization via
 * shader-weighted characteristic vectors, group normalization, random
 * projection, BIC-guided k-means clustering, representative selection,
 * and the evaluation machinery around it (cached ground-truth data,
 * error measurement, the random sub-sampling baseline of Table IV).
 */

#ifndef MSIM_CORE_MEGSIM_HH
#define MSIM_CORE_MEGSIM_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "gfx/trace.hh"
#include "gpusim/frame_stats.hh"
#include "gpusim/functional_simulator.hh"
#include "gpusim/gpu_config.hh"
#include "resilience/watchdog.hh"
#include "resilience/expected.hh"
#include "util/image.hh"

namespace msim::gpusim
{
class SceneBinding;
class TimingSimulator;
} // namespace msim::gpusim

namespace msim::obs
{
class Heartbeat;
} // namespace msim::obs

namespace msim::resilience
{
class Checkpoint;
} // namespace msim::resilience

namespace msim::megsim
{

/**
 * A frames x dims matrix of characterizing parameters. Columns are
 * grouped: [0, vsDims) per-vertex-shader work, [vsDims, vsDims+fsDims)
 * per-fragment-shader work, and one final PRIM column.
 */
class FeatureMatrix
{
  public:
    FeatureMatrix() = default;

    FeatureMatrix(std::size_t frames, std::size_t vsDims,
                  std::size_t fsDims)
        : rows_(frames), vs_(vsDims), fs_(fsDims),
          cols_(vsDims + fsDims + 1), data_(frames * cols_, 0.0)
    {}

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t vsDims() const { return vs_; }
    std::size_t fsDims() const { return fs_; }

    double &
    at(std::size_t frame, std::size_t dim)
    {
        return data_[frame * cols_ + dim];
    }

    double
    at(std::size_t frame, std::size_t dim) const
    {
        return data_[frame * cols_ + dim];
    }

    /** Frame @p frame's cols() features, contiguous. */
    const double *
    row(std::size_t frame) const
    {
        return data_.data() + frame * cols_;
    }

  private:
    std::size_t rows_ = 0;
    std::size_t vs_ = 0;
    std::size_t fs_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/**
 * Raw characteristic vectors (Sec. III-B): each shader column is its
 * invocation count times the shader's characteristic cost (ALU ops
 * count 1, texture ops their filter weight), the last column is the
 * primitive count.
 */
FeatureMatrix
buildFeatureMatrix(const std::vector<gpusim::FrameActivity> &activities,
                   const gfx::SceneTrace &scene);

enum class NormalizationScheme {
    GroupSumWeights, // the paper's scheme (Sec. III-C)
    ColumnMaxWeights,
    None,
};

/**
 * Relative importance of the characteristic groups, derived from the
 * Fig. 4 power fractions (geometry / raster / tiling).
 */
struct GroupWeights
{
    double vs = 0.108;
    double fs = 0.745;
    double prim = 0.147;

    static GroupWeights
    uniform()
    {
        return {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0};
    }
};

/** Normalize @p features in place. */
void normalize(FeatureMatrix &features,
               NormalizationScheme scheme =
                   NormalizationScheme::GroupSumWeights,
               const GroupWeights &weights = GroupWeights{});

/**
 * Gaussian random projection to @p dims dimensions (Sec. III-E), the
 * distance-preserving reduction that keeps clustering affordable.
 * Identity when the matrix is already narrower than @p dims.
 */
FeatureMatrix randomProject(const FeatureMatrix &features,
                            std::size_t dims,
                            std::uint64_t seed = 0x4a4c50);

struct KMeansConfig
{
    std::size_t maxIterations = 64;
    std::uint64_t seed = 1;
};

struct KMeansResult
{
    std::size_t k = 0;
    std::vector<std::size_t> labels;    // per frame
    std::vector<std::size_t> sizes;     // per cluster
    std::vector<double> centroids;      // k x dims, row-major
    std::size_t dims = 0;
    double inertia = 0.0; // sum of squared distances to centroids
};

/** Lloyd's k-means with k-means++ seeding. */
KMeansResult kmeans(const FeatureMatrix &features, std::size_t k,
                    const KMeansConfig &config = KMeansConfig{});

/** Bayesian Information Criterion of a clustering (Sec. III-F). */
double bicScore(const FeatureMatrix &features,
                const KMeansResult &clustering);

struct SelectorConfig
{
    /**
     * BIC spread threshold T: the chosen k is the smallest whose BIC
     * reaches min + T * (max - min) of the explored range.
     */
    double threshold = 0.85;
    /** k-means attempts per k (robustness against bad seeds). */
    std::size_t restarts = 3;
    /** Consecutive BIC decreases tolerated before the search stops. */
    std::size_t patience = 3;
    /** Hard cap on the explored k. */
    std::size_t maxClusters = 64;
    KMeansConfig kmeans;
};

struct SelectionStep
{
    double bic = 0.0;
    KMeansResult result;
};

struct SelectionResult
{
    std::vector<SelectionStep> trace; // index i holds k = i + 1
    std::size_t chosenIndex = 0;

    const KMeansResult &
    chosen() const
    {
        return trace[chosenIndex].result;
    }

    double chosenBic() const { return trace[chosenIndex].bic; }
};

/** Grow k until BIC saturates; pick via the spread threshold. */
SelectionResult selectClustering(const FeatureMatrix &features,
                                 const SelectorConfig &config =
                                     SelectorConfig{});

/**
 * The frames MEGsim cycle-simulates: per cluster, the member closest
 * to the centroid, weighted by the cluster population.
 */
struct RepresentativeSet
{
    std::vector<std::size_t> frames;
    std::vector<double> weights;

    std::size_t size() const { return frames.size(); }
};

RepresentativeSet representativeSet(const FeatureMatrix &features,
                                    const KMeansResult &clustering);

/**
 * Every cluster's members ordered closest-to-centroid first — the
 * fallback chain graceful degradation walks when a representative
 * frame fails or times out. members[c][0] is exactly the frame
 * representativeSet() picks.
 */
struct RankedClusters
{
    std::vector<std::vector<std::size_t>> members;
    std::vector<double> weights; // cluster populations
};

RankedClusters rankClusterMembers(const FeatureMatrix &features,
                                  const KMeansResult &clustering);

/**
 * Pairwise Euclidean frame distances (the Fig. 5 similarity matrix;
 * darker = more similar in the exported plots).
 */
class SimilarityMatrix
{
  public:
    explicit SimilarityMatrix(const FeatureMatrix &features);

    std::size_t frames() const { return n_; }

    double
    at(std::size_t a, std::size_t b) const
    {
        return dist_[a * n_ + b];
    }

    double maxDistance() const { return max_; }
    double meanDistance() const { return mean_; }

    /** Downsample to a @p size x @p size grayscale plot. */
    util::GrayImage toImage(int size) const;

    void writePgm(const std::string &path, int size = 512) const;

  private:
    std::size_t n_ = 0;
    std::vector<double> dist_;
    double max_ = 0.0;
    double mean_ = 0.0;
};

/**
 * Fig. 3: how well each characteristic group explains a target metric.
 * Shader groups use the coefficient of multiple correlation (Eqs.
 * 2-3), the single-column PRIM group Pearson's coefficient (Eq. 1).
 */
struct CorrelationStudy
{
    double vscv = 0.0;
    double fscv = 0.0;
    double prim = 0.0;
};

CorrelationStudy correlationStudy(const FeatureMatrix &rawFeatures,
                                  const std::vector<double> &metric);

struct MegsimConfig
{
    SelectorConfig selector;
    NormalizationScheme normalization =
        NormalizationScheme::GroupSumWeights;
    GroupWeights weights;
    /** Random-projection target dimensionality (Sec. III-E). */
    std::size_t projectedDims = 24;
};

/**
 * Pooled cross-benchmark feature space (suite clustering): every
 * benchmark's NORMALIZED feature rows stacked into one matrix, with
 * per-row provenance back to (benchmark, local frame). Benchmarks
 * disagree on shader counts, so rows are zero-padded to the widest
 * vs/fs group across the pool — a missing shader contributes no work,
 * which is exactly what a zero column says. Normalization happens
 * per benchmark BEFORE pooling (GroupSumWeights rescales each group
 * to a fixed budget), so a heavyweight title cannot dominate the
 * distance metric by sheer magnitude.
 */
struct PooledFeatures
{
    /** frames(total) x (maxVs + maxFs + 1), PRIM last. */
    FeatureMatrix features;
    /** Per pooled row: owning benchmark index (pool order). */
    std::vector<std::size_t> bench;
    /** Per pooled row: local frame index within that benchmark. */
    std::vector<std::size_t> frame;
    /** Per benchmark: its first pooled row (rows are bench-major). */
    std::vector<std::size_t> firstRow;
    /** Per benchmark: its frame count. */
    std::vector<std::size_t> frames;

    std::size_t numBenches() const { return firstRow.size(); }
};

/**
 * Stack per-benchmark normalized feature matrices (pool order) into
 * one padded matrix with provenance. Pure row copying — pooling never
 * re-normalizes, so each benchmark's rows are bit-identical to the
 * ones its own per-bench pipeline would cluster.
 */
PooledFeatures
poolFeatures(const std::vector<const FeatureMatrix *> &normalized);

/**
 * One shared representative: the pooled frame closest to its cluster
 * centroid, with provenance naming the benchmark that must simulate
 * it. Its timing metrics are simulated ONCE and reused by every
 * benchmark with members in the cluster.
 */
struct SuiteRepresentative
{
    std::size_t cluster = 0; // cluster index in the chosen k-means
    std::size_t bench = 0;   // provenance: owning benchmark
    std::size_t frame = 0;   // local frame within that benchmark
    double weight = 0.0;     // suite-wide cluster population
};

/** Cross-benchmark clustering plus the per-bench fold-back weights. */
struct SuiteClustering
{
    SelectionResult selection;
    /** One entry per non-empty cluster, in cluster order. */
    std::vector<SuiteRepresentative> representatives;
    /**
     * memberCounts[b][r]: how many of benchmark b's frames landed in
     * representatives[r]'s cluster — the per-benchmark fold-back
     * weights (columns sum to representatives[r].weight, rows to the
     * benchmark's frame count).
     */
    std::vector<std::vector<double>> memberCounts;
};

/**
 * Representative election + fold-back weights for an existing
 * clustering of @p pooled rows (the golden tests drive this directly
 * with a hand-built k-means result).
 */
SuiteClustering suiteFromClustering(const PooledFeatures &pooled,
                                    const FeatureMatrix &clustered,
                                    const KMeansResult &clustering);

/**
 * The full suite-level pipeline on pooled features: random projection
 * (same seed as the per-bench path), BIC-guided k-selection, and
 * suite-wide representative election. @p seed overrides the k-means
 * seed (0 keeps the configured one). Thread-count invariant like the
 * per-bench pipeline.
 */
SuiteClustering clusterSuite(const PooledFeatures &pooled,
                             const MegsimConfig &config,
                             std::uint64_t seed = 0);

/**
 * Relative error (%) of the fold-back estimate
 * sum_r counts[r] * repValues[r] against @p truthTotal — the suite
 * twin of MegsimPipeline::errorPercent, as a pure function so both
 * the campaign and the golden tests compute it identically.
 */
double foldBackErrorPercent(const std::vector<double> &counts,
                            const std::vector<double> &repValues,
                            double truthTotal);

/**
 * Column layout of the activity cache/journal rows (frame, primitives,
 * vertices, fragments, then one column per vertex and fragment
 * shader). Shared by the checkpoint journals, the cache artifacts and
 * the serve worker protocol, which all transport the same rows.
 */
std::vector<std::string> activityHeader(const gfx::SceneTrace &scene);
std::vector<double> activityToRow(const gpusim::FrameActivity &act);
gpusim::FrameActivity activityFromRow(const std::vector<double> &row,
                                      std::size_t vsShaders,
                                      std::size_t fsShaders);

/** Outcome of probing a benchmark's on-disk ground-truth caches. */
enum class CacheProbe {
    Loaded,  // both artifacts verified and loaded into memory
    Missing, // at least one artifact absent, none corrupt
    Invalid, // at least one artifact stale/corrupt (regeneration due)
};

/**
 * A benchmark's per-frame ground truth, computed lazily and cached on
 * disk (keyed by scene content hash and GPU-config fingerprint, so
 * stale caches can never be reused). An empty @p cacheDirectory
 * disables the disk cache. Constructing BenchmarkData does no work at
 * all: the cache key is computed, thread-safely, on its first read,
 * the functional pass on first use of activities(), the cycle-level
 * pass on first use of frameStats(). The scene must outlive it and
 * stay unchanged; the class is neither copyable nor movable.
 */
class BenchmarkData
{
  public:
    BenchmarkData(const gfx::SceneTrace &scene,
                  const gpusim::GpuConfig &config,
                  std::string cacheDirectory);
    BenchmarkData(const BenchmarkData &) = delete;
    BenchmarkData &operator=(const BenchmarkData &) = delete;

    const gfx::SceneTrace &scene() const { return *scene_; }
    const gpusim::GpuConfig &config() const { return config_; }

    /** Functional activity of every frame (cheap pass). */
    const std::vector<gpusim::FrameActivity> &activities();

    /** Cycle-level stats of every frame (the expensive pass). */
    const std::vector<gpusim::FrameStats> &frameStats();

    /** One ground-truth metric value per frame. */
    std::vector<double> metric(gpusim::Metric metric);

    /**
     * On-disk path of the @p kind ("activity" / "stats") cache
     * artifact; also what `megsim-cli verify-cache` inspects.
     */
    std::string cachePath(const std::string &kind) const;

    /**
     * Scene/config fingerprint keying caches and checkpoints, hashed
     * from the scene on the first read by any thread.
     */
    std::uint64_t cacheKey() const;

    /**
     * Attempt to satisfy both passes from the disk caches without
     * simulating anything: Loaded means activities() and frameStats()
     * are now in memory and free; Missing/Invalid mean a ground-truth
     * pass is due (Invalid additionally flags that a stale or corrupt
     * artifact was found and counted under resilience.cache.*).
     */
    CacheProbe probeCaches();

    /** Both passes already in memory (cache hit or pass complete). */
    bool complete() const { return haveStats_ && haveActivities_; }

    /**
     * Directory + artifact stem the cache and checkpoint files hang
     * off; serve shard journals derive their stems from it too.
     */
    std::string checkpointStem() const;

    /**
     * Install externally produced ground truth (frames assembled from
     * supervised worker shards) and store the cache artifacts. Both
     * vectors must cover every scene frame in order. The data stays
     * installed in memory even when a cache store fails; the first
     * store error is returned so the caller can decide whether the
     * on-disk state is trustworthy.
     */
    resilience::Expected<void>
    installGroundTruth(std::vector<gpusim::FrameStats> stats,
                       std::vector<gpusim::FrameActivity> activities);

  private:
    friend class GroundTruthPass;

    CacheProbe loadActivityCache();
    resilience::Expected<void> storeActivityCache() const;
    CacheProbe loadStatsCache();
    resilience::Expected<void> storeStatsCache() const;

    const gfx::SceneTrace *scene_;
    gpusim::GpuConfig config_;
    std::string cacheDir_;
    mutable std::once_flag keyOnce_;
    mutable std::uint64_t key_ = 0;
    std::vector<gpusim::FrameActivity> activities_;
    std::vector<gpusim::FrameStats> stats_;
    bool haveActivities_ = false;
    bool haveStats_ = false;
};

/** What one ground-truth worker hands to the ordered committer. */
struct GroundTruthFrame
{
    gpusim::FrameStats stats;
    gpusim::FrameActivity activity;
};

/**
 * The checkpointed cycle-level ground-truth pass of ONE benchmark,
 * exposed as produce/commit halves so a driver can run it through an
 * exec::Pool job of its own choosing — BenchmarkData::frameStats()
 * runs one pass as a private pool job, batch::Campaign splices the
 * frames of many passes into a single shared job. The split preserves
 * the frameStats() contract exactly: checkpoint resume on
 * construction, watchdog + fault hooks per frame, journal appends in
 * strict frame order from commit() (caller thread only), caches
 * stored and the checkpoint discarded by finish(). Frames simulate
 * cold, so any interleaving of produce() calls yields bit-identical
 * results.
 */
class GroundTruthPass
{
  public:
    /** Resumes the checkpoint (if any); @p workers sizes the
     *  thread-local simulator slots. */
    GroundTruthPass(BenchmarkData &data, std::size_t workers);
    ~GroundTruthPass();

    BenchmarkData &data() { return *data_; }

    /** Frames still to simulate; produce/commit indices are
     *  [0, remaining()). */
    std::size_t remaining() const { return total_ - start_; }

    /** Frames recovered from a previous run's checkpoint. */
    std::size_t resumedFrames() const { return start_; }

    /** Simulate local frame @p i on worker @p w (any thread). */
    resilience::Expected<GroundTruthFrame>
    produce(std::size_t i, std::size_t w);

    /** Journal local frame @p i; caller thread, in order. */
    void commit(std::size_t i, GroundTruthFrame &&frame);

    /**
     * All frames committed: publish stats/activities into the
     * BenchmarkData, store the cache artifacts, drop the checkpoint.
     */
    void finish();

  private:
    BenchmarkData *data_;
    std::size_t total_ = 0;
    std::size_t start_ = 0;
    std::size_t committed_ = 0;
    std::unique_ptr<resilience::Checkpoint> ckpt_;
    std::unique_ptr<gpusim::SceneBinding> binding_;
    std::vector<std::unique_ptr<gpusim::TimingSimulator>> sims_;
    std::vector<gpusim::FrameStats> stats_;
    std::vector<gpusim::FrameActivity> acts_;
    std::unique_ptr<obs::Heartbeat> heartbeat_;
    resilience::WatchdogConfig watchdog_;
};

/** One end-to-end application of the methodology. */
struct MegsimRun
{
    std::size_t numFrames = 0;
    SelectionResult selection;
    RepresentativeSet representatives;

    std::size_t
    numRepresentatives() const
    {
        return representatives.size();
    }

    double
    reductionFactor() const
    {
        return representatives.size() == 0
                   ? 0.0
                   : static_cast<double>(numFrames) /
                         static_cast<double>(representatives.size());
    }
};

class MegsimPipeline
{
  public:
    explicit MegsimPipeline(BenchmarkData &data,
                            const MegsimConfig &config = MegsimConfig{});

    /** Unnormalized characteristic vectors (Fig. 3 inputs). */
    const FeatureMatrix &rawFeatures();

    /** Normalized characteristic vectors (Fig. 5 inputs). */
    const FeatureMatrix &features();

    /** Projected vectors clustering runs on (Sec. III-E). */
    const FeatureMatrix &projectedFeatures();

    /** The benchmark data this pipeline reduces. */
    BenchmarkData &data() { return *data_; }

    /**
     * Select representatives. @p seed overrides the k-means seed (0
     * keeps the configured one) — Table IV repeats runs this way.
     */
    MegsimRun run(std::uint64_t seed = 0);

    /**
     * Relative error (%) of the representative-weighted estimate of
     * @p metric against the full ground truth.
     */
    double errorPercent(const MegsimRun &run, gpusim::Metric metric);

  private:
    BenchmarkData *data_;
    MegsimConfig config_;
    FeatureMatrix raw_;
    FeatureMatrix normalized_;
    FeatureMatrix projected_;
    bool haveRaw_ = false;
    bool haveNormalized_ = false;
    bool haveProjected_ = false;
};

/** Table IV baseline: systematic random sub-sampling. */
struct RandomSamplingConfig
{
    std::size_t trials = 1000;
    double confidencePercent = 95.0;
    std::uint64_t seed = 0x5353;
};

/**
 * The smallest systematic random sample (in frames) whose
 * confidence-percentile relative error of the estimated total of
 * @p values is at or below @p maxErrorPercent.
 */
std::size_t findMatchingSampleCount(const std::vector<double> &values,
                                    double maxErrorPercent,
                                    const RandomSamplingConfig &config =
                                        RandomSamplingConfig{});

} // namespace msim::megsim

#endif // MSIM_CORE_MEGSIM_HH
