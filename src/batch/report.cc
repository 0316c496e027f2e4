#include "batch/report.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "gpusim/gpu_config.hh"
#include "resilience/artifact.hh"

namespace msim::batch
{

const gpusim::Metric kMetrics[kNumMetrics] = {
    gpusim::Metric::Cycles,
    gpusim::Metric::DramAccesses,
    gpusim::Metric::L2Accesses,
    gpusim::Metric::TileCacheAccesses,
};

const char *const kMetricKeys[kNumMetrics] = {"cycles", "dram", "l2",
                                              "tile"};

namespace
{

util::Json
metricObject(const double values[kNumMetrics])
{
    util::Json obj = util::Json::object();
    for (std::size_t m = 0; m < kNumMetrics; ++m)
        obj.set(kMetricKeys[m], values[m]);
    return obj;
}

resilience::Expected<void>
metricObjectInto(const util::Json *obj, const char *what,
                 double out[kNumMetrics])
{
    if (!obj || !obj->isObject())
        return resilience::errorf(resilience::Errc::BadFormat,
                                  "report: missing object '%s'", what);
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
        const util::Json *v = obj->find(kMetricKeys[m]);
        if (!v || !v->isNumber())
            return resilience::errorf(
                resilience::Errc::BadFormat,
                "report: missing number '%s.%s'", what,
                kMetricKeys[m]);
        out[m] = v->asNumber();
    }
    return {};
}

resilience::Expected<void>
requireExactMemMode(const util::Json &obj, const char *where)
{
    const util::Json *mode = obj.find("mem_mode");
    if (mode && mode->asString() != gpusim::kMemMode)
        return resilience::errorf(
            resilience::Errc::BadVersion,
            "report: %s mem_mode '%s' is not '%s' (sampled cache-model "
            "reports are no longer supported)",
            where, mode->asString().c_str(), gpusim::kMemMode);
    return {};
}

resilience::Expected<double>
numberAt(const util::Json &obj, const char *key)
{
    const util::Json *v = obj.find(key);
    if (!v || !v->isNumber())
        return resilience::errorf(resilience::Errc::BadFormat,
                                  "report: missing number '%s'", key);
    return v->asNumber();
}

/** One limit a thresholds file may set, by its dotted key. */
struct LimitField
{
    std::string path;
    double *out;
};

/**
 * Assign every member of @p obj to the limit its dotted path names,
 * descending into the objects that hold limits. Fails closed: a key
 * that names no limit, or a limit that is not a number, is refused.
 */
resilience::Expected<void>
limitsInto(const util::Json &obj, const std::string &prefix,
           const std::vector<LimitField> &fields)
{
    for (const auto &[key, value] : obj.members()) {
        const std::string path = prefix + key;
        if (path == "schema" || path == "_comment")
            continue;
        const auto leaf = std::find_if(
            fields.begin(), fields.end(),
            [&](const LimitField &f) { return f.path == path; });
        if (leaf != fields.end()) {
            if (!value.isNumber())
                return resilience::errorf(
                    resilience::Errc::BadFormat,
                    "thresholds: '%s' is not a number", path.c_str());
            *leaf->out = value.asNumber();
            continue;
        }
        const bool branch = std::any_of(
            fields.begin(), fields.end(), [&](const LimitField &f) {
                return f.path.rfind(path + ".", 0) == 0;
            });
        if (!branch)
            return resilience::errorf(resilience::Errc::BadFormat,
                                      "thresholds: unknown key '%s'",
                                      path.c_str());
        if (!value.isObject())
            return resilience::errorf(
                resilience::Errc::BadFormat,
                "thresholds: '%s' is not an object", path.c_str());
        if (auto nested = limitsInto(value, path + ".", fields);
            !nested.ok())
            return nested;
    }
    return {};
}

} // namespace

void
CampaignReport::computeAggregates()
{
    totalFrames = 0.0;
    totalRepresentatives = 0.0;
    meanReduction = 0.0;
    suiteReduction = 0.0;
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
        meanErrorPercent[m] = 0.0;
        maxErrorPercent[m] = 0.0;
    }
    if (benchmarks.empty())
        return;
    for (const BenchmarkReport &b : benchmarks) {
        totalFrames += static_cast<double>(b.frames);
        totalRepresentatives += static_cast<double>(b.representatives);
        meanReduction += b.reduction;
        for (std::size_t m = 0; m < kNumMetrics; ++m) {
            meanErrorPercent[m] += b.errorPercent[m];
            maxErrorPercent[m] =
                std::max(maxErrorPercent[m], b.errorPercent[m]);
        }
    }
    const double n = static_cast<double>(benchmarks.size());
    meanReduction /= n;
    for (std::size_t m = 0; m < kNumMetrics; ++m)
        meanErrorPercent[m] /= n;
    if (totalRepresentatives > 0.0)
        suiteReduction = totalFrames / totalRepresentatives;
}

util::Json
CampaignReport::toJson() const
{
    util::Json root = util::Json::object();
    root.set("schema", kSchema);
    root.set("threads", threads);
    root.set("mem_mode", gpusim::kMemMode);
    root.set("degraded", degraded);

    util::Json quarantineRows = util::Json::array();
    for (const QuarantinedShard &q : quarantined) {
        util::Json row = util::Json::object();
        row.set("shard", q.shard);
        row.set("bench", q.bench);
        row.set("begin_frame", q.beginFrame);
        row.set("end_frame", q.endFrame);
        row.set("attempts", q.attempts);
        row.set("reason", q.reason);
        quarantineRows.push(std::move(row));
    }
    root.set("quarantined_shards", std::move(quarantineRows));

    util::Json rows = util::Json::array();
    for (const BenchmarkReport &b : benchmarks) {
        util::Json row = util::Json::object();
        row.set("alias", b.alias);
        row.set("frames", b.frames);
        row.set("resumed_frames", b.resumedFrames);
        row.set("k", b.chosenK);
        row.set("representatives", b.representatives);
        row.set("reduction", b.reduction);
        row.set("error_percent", metricObject(b.errorPercent));
        row.set("wall_seconds", b.wallSeconds);
        row.set("cache", b.cacheStatus);
        row.set("mem_mode", gpusim::kMemMode);
        rows.push(std::move(row));
    }
    root.set("benchmarks", std::move(rows));

    util::Json suite = util::Json::object();
    suite.set("benchmarks", benchmarks.size());
    suite.set("total_frames", totalFrames);
    suite.set("total_representatives", totalRepresentatives);
    suite.set("mean_reduction", meanReduction);
    suite.set("suite_reduction", suiteReduction);
    suite.set("mean_error_percent", metricObject(meanErrorPercent));
    suite.set("max_error_percent", metricObject(maxErrorPercent));
    suite.set("wall_seconds", wallSeconds);
    suite.set("pool_utilization", poolUtilization);
    root.set("suite", std::move(suite));
    return root;
}

resilience::Expected<CampaignReport>
CampaignReport::fromJson(const util::Json &json)
{
    const util::Json *schema = json.find("schema");
    if (!schema || !schema->isString())
        return resilience::errorf(resilience::Errc::BadFormat,
                                  "report: missing 'schema'");
    if (schema->asString() != kSchema)
        return resilience::errorf(
            resilience::Errc::BadVersion,
            "report: schema '%s', expected '%s'",
            schema->asString().c_str(), kSchema);

    CampaignReport report;
    if (auto mode = requireExactMemMode(json, "campaign"); !mode.ok())
        return mode.error();
    if (auto threads = json.countAt("threads"); threads.ok())
        report.threads = *threads;
    else
        return threads.error();
    if (const util::Json *degraded = json.find("degraded"))
        report.degraded = degraded->asBool();
    if (const util::Json *qs = json.find("quarantined_shards")) {
        if (!qs->isArray())
            return resilience::errorf(
                resilience::Errc::BadFormat,
                "report: 'quarantined_shards' is not an array");
        for (const util::Json &row : qs->items()) {
            QuarantinedShard q;
            const util::Json *bench = row.find("bench");
            if (!bench || !bench->isString())
                return resilience::errorf(
                    resilience::Errc::BadFormat,
                    "report: quarantined shard missing 'bench'");
            q.bench = bench->asString();
            struct {
                const char *key;
                std::size_t *out;
            } counts[] = {
                {"shard", &q.shard},
                {"begin_frame", &q.beginFrame},
                {"end_frame", &q.endFrame},
                {"attempts", &q.attempts},
            };
            for (const auto &field : counts) {
                auto v = row.countAt(field.key);
                if (!v.ok())
                    return v.error();
                *field.out = *v;
            }
            if (const util::Json *reason = row.find("reason"))
                q.reason = reason->asString();
            report.quarantined.push_back(std::move(q));
        }
    }

    const util::Json *rows = json.find("benchmarks");
    if (!rows || !rows->isArray())
        return resilience::errorf(resilience::Errc::BadFormat,
                                  "report: missing 'benchmarks'");
    for (const util::Json &row : rows->items()) {
        BenchmarkReport b;
        const util::Json *alias = row.find("alias");
        if (!alias || !alias->isString())
            return resilience::errorf(resilience::Errc::BadFormat,
                                      "report: row missing 'alias'");
        b.alias = alias->asString();
        struct {
            const char *key;
            std::size_t *out;
        } counts[] = {
            {"frames", &b.frames},
            {"resumed_frames", &b.resumedFrames},
            {"k", &b.chosenK},
            {"representatives", &b.representatives},
        };
        for (const auto &field : counts) {
            auto v = row.countAt(field.key);
            if (!v.ok())
                return v.error();
            *field.out = *v;
        }
        auto reduction = numberAt(row, "reduction");
        if (!reduction.ok())
            return reduction.error();
        b.reduction = *reduction;
        auto errors = metricObjectInto(row.find("error_percent"),
                                       "error_percent",
                                       b.errorPercent);
        if (!errors.ok())
            return errors.error();
        auto wall = numberAt(row, "wall_seconds");
        if (!wall.ok())
            return wall.error();
        b.wallSeconds = *wall;
        if (const util::Json *cache = row.find("cache"))
            b.cacheStatus = cache->asString();
        if (auto mode = requireExactMemMode(row, b.alias.c_str());
            !mode.ok())
            return mode.error();
        report.benchmarks.push_back(std::move(b));
    }

    const util::Json *suite = json.find("suite");
    if (!suite || !suite->isObject())
        return resilience::errorf(resilience::Errc::BadFormat,
                                  "report: missing 'suite'");
    struct {
        const char *key;
        double *out;
    } suiteFields[] = {
        {"total_frames", &report.totalFrames},
        {"total_representatives", &report.totalRepresentatives},
        {"mean_reduction", &report.meanReduction},
        {"suite_reduction", &report.suiteReduction},
        {"wall_seconds", &report.wallSeconds},
        {"pool_utilization", &report.poolUtilization},
    };
    for (const auto &field : suiteFields) {
        auto v = numberAt(*suite, field.key);
        if (!v.ok())
            return v.error();
        *field.out = *v;
    }
    auto meanErr = metricObjectInto(suite->find("mean_error_percent"),
                                    "suite.mean_error_percent",
                                    report.meanErrorPercent);
    if (!meanErr.ok())
        return meanErr.error();
    auto maxErr = metricObjectInto(suite->find("max_error_percent"),
                                   "suite.max_error_percent",
                                   report.maxErrorPercent);
    if (!maxErr.ok())
        return maxErr.error();
    return report;
}

resilience::Expected<void>
CampaignReport::save(const std::string &path) const
{
    return resilience::atomicWriteFile(path, toJson().dump());
}

resilience::Expected<CampaignReport>
CampaignReport::load(const std::string &path)
{
    auto text = resilience::readFileToString(path);
    if (!text.ok())
        return text.error();
    auto json = util::Json::parse(*text);
    if (!json.ok())
        return json.error();
    return fromJson(*json);
}

Thresholds::Thresholds()
{
    for (std::size_t m = 0; m < kNumMetrics; ++m)
        maxErrorPercent[m] = std::numeric_limits<double>::infinity();
}

resilience::Expected<Thresholds>
Thresholds::fromJson(const util::Json &json)
{
    const util::Json *schema = json.find("schema");
    if (!schema || schema->asString() != kSchema)
        return resilience::errorf(
            resilience::Errc::BadVersion,
            "thresholds: missing or unknown schema (expected '%s')",
            kSchema);
    Thresholds limits;
    std::vector<LimitField> fields = {
        {"min_reduction", &limits.minReduction},
        {"min_mean_reduction", &limits.minMeanReduction},
    };
    for (std::size_t m = 0; m < kNumMetrics; ++m)
        fields.push_back({std::string("max_error_percent.") +
                              kMetricKeys[m],
                          &limits.maxErrorPercent[m]});
    if (auto parsed = limitsInto(json, "", fields); !parsed.ok())
        return parsed.error();
    return limits;
}

resilience::Expected<Thresholds>
Thresholds::load(const std::string &path)
{
    auto text = resilience::readFileToString(path);
    if (!text.ok())
        return text.error();
    auto json = util::Json::parse(*text);
    if (!json.ok())
        return json.error();
    return fromJson(*json);
}

std::vector<std::string>
checkThresholds(const CampaignReport &report, const Thresholds &limits)
{
    std::vector<std::string> violations;
    char line[160];
    for (const BenchmarkReport &b : report.benchmarks) {
        for (std::size_t m = 0; m < kNumMetrics; ++m) {
            if (b.errorPercent[m] > limits.maxErrorPercent[m]) {
                std::snprintf(line, sizeof(line),
                              "%s: %s error %.4f%% exceeds limit "
                              "%.4f%%",
                              b.alias.c_str(), kMetricKeys[m],
                              b.errorPercent[m],
                              limits.maxErrorPercent[m]);
                violations.emplace_back(line);
            }
        }
        if (b.reduction < limits.minReduction) {
            std::snprintf(line, sizeof(line),
                          "%s: reduction %.2fx below floor %.2fx",
                          b.alias.c_str(), b.reduction,
                          limits.minReduction);
            violations.emplace_back(line);
        }
    }
    if (report.meanReduction < limits.minMeanReduction) {
        std::snprintf(line, sizeof(line),
                      "suite: mean reduction %.2fx below floor %.2fx",
                      report.meanReduction, limits.minMeanReduction);
        violations.emplace_back(line);
    }
    return violations;
}

std::vector<std::string>
diffReports(const CampaignReport &a, const CampaignReport &b)
{
    std::vector<std::string> diffs;
    char line[200];
    auto number = [&](const char *where, const char *what, double va,
                      double vb) {
        if (va == vb)
            return;
        std::snprintf(line, sizeof(line), "%s: %s %.17g != %.17g",
                      where, what, va, vb);
        diffs.emplace_back(line);
    };

    if (a.benchmarks.size() != b.benchmarks.size()) {
        std::snprintf(line, sizeof(line),
                      "suite: %zu benchmarks != %zu",
                      a.benchmarks.size(), b.benchmarks.size());
        diffs.emplace_back(line);
    }
    const std::size_t rows =
        std::min(a.benchmarks.size(), b.benchmarks.size());
    for (std::size_t i = 0; i < rows; ++i) {
        const BenchmarkReport &ra = a.benchmarks[i];
        const BenchmarkReport &rb = b.benchmarks[i];
        if (ra.alias != rb.alias) {
            std::snprintf(line, sizeof(line),
                          "row %zu: alias '%s' != '%s'", i,
                          ra.alias.c_str(), rb.alias.c_str());
            diffs.emplace_back(line);
            continue; // field diffs of misaligned rows are noise
        }
        const char *where = ra.alias.c_str();
        number(where, "frames", static_cast<double>(ra.frames),
               static_cast<double>(rb.frames));
        number(where, "k", static_cast<double>(ra.chosenK),
               static_cast<double>(rb.chosenK));
        number(where, "representatives",
               static_cast<double>(ra.representatives),
               static_cast<double>(rb.representatives));
        number(where, "reduction", ra.reduction, rb.reduction);
        for (std::size_t m = 0; m < kNumMetrics; ++m) {
            char what[48];
            std::snprintf(what, sizeof(what), "error_percent.%s",
                          kMetricKeys[m]);
            number(where, what, ra.errorPercent[m],
                   rb.errorPercent[m]);
        }
    }

    if (a.degraded != b.degraded) {
        std::snprintf(line, sizeof(line),
                      "suite: degraded %s != %s",
                      a.degraded ? "true" : "false",
                      b.degraded ? "true" : "false");
        diffs.emplace_back(line);
    }
    // Quarantine identity is the (bench, frame-range) pair; attempts
    // and reason are host-side retry detail that legitimately varies.
    if (a.quarantined.size() != b.quarantined.size()) {
        std::snprintf(line, sizeof(line),
                      "suite: %zu quarantined shards != %zu",
                      a.quarantined.size(), b.quarantined.size());
        diffs.emplace_back(line);
    }
    const std::size_t shards =
        std::min(a.quarantined.size(), b.quarantined.size());
    for (std::size_t i = 0; i < shards; ++i) {
        const QuarantinedShard &qa = a.quarantined[i];
        const QuarantinedShard &qb = b.quarantined[i];
        if (qa.bench != qb.bench || qa.beginFrame != qb.beginFrame ||
            qa.endFrame != qb.endFrame) {
            std::snprintf(
                line, sizeof(line),
                "quarantine %zu: %s[%zu,%zu) != %s[%zu,%zu)", i,
                qa.bench.c_str(), qa.beginFrame, qa.endFrame,
                qb.bench.c_str(), qb.beginFrame, qb.endFrame);
            diffs.emplace_back(line);
        }
    }

    number("suite", "total_frames", a.totalFrames, b.totalFrames);
    number("suite", "total_representatives", a.totalRepresentatives,
           b.totalRepresentatives);
    number("suite", "mean_reduction", a.meanReduction,
           b.meanReduction);
    number("suite", "suite_reduction", a.suiteReduction,
           b.suiteReduction);
    for (std::size_t m = 0; m < kNumMetrics; ++m) {
        char what[48];
        std::snprintf(what, sizeof(what), "mean_error_percent.%s",
                      kMetricKeys[m]);
        number("suite", what, a.meanErrorPercent[m],
               b.meanErrorPercent[m]);
        std::snprintf(what, sizeof(what), "max_error_percent.%s",
                      kMetricKeys[m]);
        number("suite", what, a.maxErrorPercent[m],
               b.maxErrorPercent[m]);
    }
    return diffs;
}

} // namespace msim::batch
