#include "core/megsim.hh"

#include <cmath>

#include "obs/attrib.hh"
#include "obs/timeline.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "util/summary.hh"

namespace msim::megsim
{

MegsimPipeline::MegsimPipeline(BenchmarkData &data,
                               const MegsimConfig &config)
    : data_(&data), config_(config)
{}

const FeatureMatrix &
MegsimPipeline::rawFeatures()
{
    if (!haveRaw_) {
        raw_ = buildFeatureMatrix(data_->activities(), data_->scene());
        haveRaw_ = true;
    }
    return raw_;
}

const FeatureMatrix &
MegsimPipeline::features()
{
    if (!haveNormalized_) {
        normalized_ = rawFeatures();
        normalize(normalized_, config_.normalization,
                  config_.weights);
        haveNormalized_ = true;
    }
    return normalized_;
}

const FeatureMatrix &
MegsimPipeline::projectedFeatures()
{
    if (!haveProjected_) {
        projected_ = randomProject(features(), config_.projectedDims);
        haveProjected_ = true;
    }
    return projected_;
}

MegsimRun
MegsimPipeline::run(std::uint64_t seed)
{
    obs::Span span("pipeline.run", obs::HostDomain::Analyze);
    projectedFeatures();

    SelectorConfig selector = config_.selector;
    if (seed != 0)
        selector.kmeans.seed = seed;

    MegsimRun run;
    run.numFrames = projected_.rows();
    run.selection = selectClustering(projected_, selector);
    run.representatives =
        representativeSet(projected_, run.selection.chosen());
    return run;
}

double
MegsimPipeline::errorPercent(const MegsimRun &run,
                             gpusim::Metric metric)
{
    const std::vector<double> truth = data_->metric(metric);

    double actual = 0.0;
    for (double v : truth)
        actual += v;

    double estimated = 0.0;
    for (std::size_t i = 0; i < run.representatives.size(); ++i) {
        const std::size_t frame = run.representatives.frames[i];
        if (frame >= truth.size())
            sim::fatal("representative frame %zu outside the %zu-frame "
                       "ground truth",
                       frame, truth.size());
        estimated +=
            truth[frame] * run.representatives.weights[i];
    }

    if (actual == 0.0)
        return 0.0;
    return std::fabs(estimated - actual) / actual * 100.0;
}

std::size_t
findMatchingSampleCount(const std::vector<double> &values,
                        double maxErrorPercent,
                        const RandomSamplingConfig &config)
{
    const std::size_t n = values.size();
    if (n == 0)
        return 0;

    double actual = 0.0;
    for (double v : values)
        actual += v;
    if (actual == 0.0)
        return 1;

    // Confidence-percentile error of systematic random sampling with
    // m frames: random start, stride n/m, total scaled back up.
    auto errorAt = [&](std::size_t m) {
        sim::Rng rng(sim::hashMix(config.seed, m));
        std::vector<double> errors;
        errors.reserve(config.trials);
        const double stride = static_cast<double>(n) /
                              static_cast<double>(m);
        for (std::size_t t = 0; t < config.trials; ++t) {
            const double start = rng.uniform() * stride;
            double sum = 0.0;
            for (std::size_t i = 0; i < m; ++i) {
                const auto idx = static_cast<std::size_t>(
                    start + stride * static_cast<double>(i));
                sum += values[idx < n ? idx : n - 1];
            }
            const double estimated =
                sum * static_cast<double>(n) /
                static_cast<double>(m);
            errors.push_back(std::fabs(estimated - actual) / actual *
                             100.0);
        }
        return util::percentile(std::move(errors),
                                config.confidencePercent);
    };

    if (errorAt(n) > maxErrorPercent)
        return n;

    // Exponential bracket, then binary search on the sample count.
    std::size_t lo = 1, hi = 1;
    while (hi < n && errorAt(hi) > maxErrorPercent) {
        lo = hi;
        hi = std::min(n, hi * 2);
    }
    while (lo + 1 < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (errorAt(mid) > maxErrorPercent)
            lo = mid;
        else
            hi = mid;
    }
    return errorAt(lo) <= maxErrorPercent ? lo : hi;
}

} // namespace msim::megsim
