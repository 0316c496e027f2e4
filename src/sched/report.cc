#include "sched/report.hh"

#include <cmath>
#include <cstdio>

#include "resilience/artifact.hh"

namespace msim::sched
{

using resilience::Errc;
using resilience::errorf;
using resilience::Expected;
using util::Json;

namespace
{

Expected<double>
numberAt(const Json &obj, const char *key)
{
    const Json *v = obj.find(key);
    if (!v || !v->isNumber())
        return errorf(Errc::BadFormat,
                      "serve report: missing number '%s'", key);
    return v->asNumber();
}

std::string
pointLabel(const ServeLoadPoint &p)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%zuw x %zur (%s)", p.workers,
                  p.requests, p.policy.c_str());
    return buf;
}

} // namespace

Json
ServeReport::toJson() const
{
    Json root = Json::object();
    root.set("schema", kSchema);
    root.set("frame_limit", frameLimit);
    root.set("shard_frames", shardFrames);
    root.set("think_ms", thinkMs);
    Json rows = Json::array();
    for (const ServeLoadPoint &p : points) {
        Json row = Json::object();
        row.set("workers", p.workers);
        row.set("requests", p.requests);
        row.set("policy", p.policy);
        row.set("makespan_seconds", p.makespanSeconds);
        row.set("requests_per_sec", p.requestsPerSec);
        row.set("p50_latency_seconds", p.p50LatencySeconds);
        row.set("p95_latency_seconds", p.p95LatencySeconds);
        rows.push(std::move(row));
    }
    root.set("points", std::move(rows));
    root.set("fifo_requests_per_sec", fifoRequestsPerSec);
    root.set("fair_requests_per_sec", fairRequestsPerSec);
    root.set("fair_speedup", fairSpeedup);
    return root;
}

Expected<ServeReport>
ServeReport::fromJson(const Json &json)
{
    const Json *schema = json.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != kSchema)
        return errorf(Errc::BadVersion,
                      "serve report: schema is not '%s'", kSchema);
    ServeReport report;
    // Every megsim-serve-v1 writer has emitted all three.
    struct {
        const char *key;
        std::size_t *out;
    } counts[] = {
        {"frame_limit", &report.frameLimit},
        {"shard_frames", &report.shardFrames},
        {"think_ms", &report.thinkMs},
    };
    for (const auto &field : counts) {
        auto v = json.countAt(field.key);
        if (!v.ok())
            return v.error();
        *field.out = *v;
    }
    const Json *rows = json.find("points");
    if (!rows || !rows->isArray())
        return errorf(Errc::BadFormat,
                      "serve report: missing 'points'");
    for (const Json &row : rows->items()) {
        ServeLoadPoint p;
        auto workers = row.countAt("workers");
        auto requests = row.countAt("requests");
        auto makespan = numberAt(row, "makespan_seconds");
        auto rps = numberAt(row, "requests_per_sec");
        auto p50 = numberAt(row, "p50_latency_seconds");
        auto p95 = numberAt(row, "p95_latency_seconds");
        if (!workers.ok())
            return workers.error();
        if (!requests.ok())
            return requests.error();
        if (!makespan.ok())
            return makespan.error();
        if (!rps.ok())
            return rps.error();
        if (!p50.ok())
            return p50.error();
        if (!p95.ok())
            return p95.error();
        p.workers = *workers;
        p.requests = *requests;
        if (const Json *policy = row.find("policy");
            policy && policy->isString())
            p.policy = policy->asString();
        p.makespanSeconds = *makespan;
        p.requestsPerSec = *rps;
        p.p50LatencySeconds = *p50;
        p.p95LatencySeconds = *p95;
        report.points.push_back(std::move(p));
    }
    if (auto v = numberAt(json, "fifo_requests_per_sec"); v.ok())
        report.fifoRequestsPerSec = *v;
    if (auto v = numberAt(json, "fair_requests_per_sec"); v.ok())
        report.fairRequestsPerSec = *v;
    if (auto v = numberAt(json, "fair_speedup"); v.ok())
        report.fairSpeedup = *v;
    return report;
}

Expected<void>
ServeReport::save(const std::string &path) const
{
    return resilience::atomicWriteFile(path, toJson().dump());
}

Expected<ServeReport>
ServeReport::load(const std::string &path)
{
    auto text = resilience::readFileToString(path);
    if (!text.ok())
        return text.error();
    auto json = Json::parse(*text);
    if (!json.ok())
        return json.error();
    return fromJson(*json);
}

std::vector<ServeDelta>
compareServeDeltas(const ServeReport &current,
                   const ServeReport &baseline, double bandPercent)
{
    std::vector<ServeDelta> deltas;
    auto match = [&](const ServeLoadPoint &p)
        -> const ServeLoadPoint * {
        for (const ServeLoadPoint &b : baseline.points)
            if (b.workers == p.workers &&
                b.requests == p.requests && b.policy == p.policy)
                return &b;
        return nullptr;
    };
    for (const ServeLoadPoint &p : current.points) {
        const ServeLoadPoint *b = match(p);
        if (!b) {
            deltas.push_back(
                {pointLabel(p), p.requestsPerSec, 0.0, 0.0, true});
            continue;
        }
        if (b->requestsPerSec <= 0.0)
            continue;
        const double deviation =
            (p.requestsPerSec - b->requestsPerSec) /
            b->requestsPerSec * 100.0;
        if (std::fabs(deviation) > bandPercent)
            deltas.push_back({pointLabel(p), p.requestsPerSec,
                              b->requestsPerSec, deviation, false});
    }
    if (baseline.fairSpeedup > 0.0 && current.fairSpeedup > 0.0) {
        const double deviation =
            (current.fairSpeedup - baseline.fairSpeedup) /
            baseline.fairSpeedup * 100.0;
        if (std::fabs(deviation) > bandPercent)
            deltas.push_back({"fair speedup", current.fairSpeedup,
                              baseline.fairSpeedup, deviation,
                              false});
    }
    return deltas;
}

std::vector<std::string>
compareServeReports(const ServeReport &current,
                    const ServeReport &baseline, double bandPercent)
{
    std::vector<std::string> lines;
    char buf[192];
    for (const ServeDelta &d :
         compareServeDeltas(current, baseline, bandPercent)) {
        if (d.missingBaseline) {
            std::snprintf(buf, sizeof(buf), "%s: no baseline point",
                          d.what.c_str());
        } else if (d.what == "fair speedup") {
            std::snprintf(
                buf, sizeof(buf),
                "fair speedup: %.2fx vs baseline %.2fx (%+.1f%%, "
                "band ±%.0f%%)",
                d.current, d.baseline, d.deltaPercent, bandPercent);
        } else {
            std::snprintf(
                buf, sizeof(buf),
                "%s: %.3f req/s vs baseline %.3f (%+.1f%%, band "
                "±%.0f%%)",
                d.what.c_str(), d.current, d.baseline,
                d.deltaPercent, bandPercent);
        }
        lines.push_back(buf);
    }
    return lines;
}

} // namespace msim::sched
