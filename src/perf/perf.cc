#include "perf/perf.hh"


#include "gpusim/geometry.hh"
#include "gpusim/gpu_config.hh"
#include "gpusim/scene_binding.hh"
#include "gpusim/timing_simulator.hh"
#include "obs/attrib.hh"
#include "obs/profile.hh"
#include "obs/timeline.hh"
#include "resilience/artifact.hh"
#include "workloads/workloads.hh"

namespace msim::perf
{

namespace
{

resilience::Expected<double>
numberAt(const util::Json &obj, const char *key)
{
    const util::Json *v = obj.find(key);
    if (!v || !v->isNumber())
        return resilience::errorf(resilience::Errc::BadFormat,
                                  "perf report: missing number '%s'",
                                  key);
    return v->asNumber();
}

} // namespace

void
PerfReport::computeAggregates()
{
    totalFrames = 0;
    totalCycles = 0;
    totalWallSeconds = 0.0;
    for (const BenchPerf &b : benches) {
        totalFrames += b.frames;
        totalCycles += b.cycles;
        totalWallSeconds += b.wallSeconds;
    }
    framesPerSec = totalWallSeconds > 0.0
                       ? static_cast<double>(totalFrames) /
                             totalWallSeconds
                       : 0.0;
    mcyclesPerSec = totalWallSeconds > 0.0
                        ? static_cast<double>(totalCycles) / 1e6 /
                              totalWallSeconds
                        : 0.0;
}

util::Json
PerfReport::toJson() const
{
    util::Json root = util::Json::object();
    root.set("schema", kSchema);
    root.set("frame_limit", frameLimit);
    root.set("scale", scale);
    root.set("gpu_profile", baseline ? "baseline" : "evaluation");
    root.set("mem_mode", gpusim::kMemMode);

    util::Json rows = util::Json::array();
    for (const BenchPerf &b : benches) {
        util::Json row = util::Json::object();
        row.set("alias", b.alias);
        row.set("frames", b.frames);
        row.set("cycles", static_cast<double>(b.cycles));
        row.set("wall_seconds", b.wallSeconds);
        row.set("frames_per_sec", b.framesPerSec);
        row.set("mcycles_per_sec", b.mcyclesPerSec);
        rows.push(std::move(row));
    }
    root.set("benchmarks", std::move(rows));

    util::Json suite = util::Json::object();
    suite.set("total_frames", totalFrames);
    suite.set("total_cycles", static_cast<double>(totalCycles));
    suite.set("wall_seconds", totalWallSeconds);
    suite.set("frames_per_sec", framesPerSec);
    suite.set("mcycles_per_sec", mcyclesPerSec);
    root.set("suite", std::move(suite));

    util::Json split = util::Json::array();
    for (const PhaseSplit &p : phases) {
        util::Json row = util::Json::object();
        row.set("phase", p.name);
        row.set("seconds", p.seconds);
        split.push(std::move(row));
    }
    root.set("phase_split", std::move(split));
    return root;
}

resilience::Expected<PerfReport>
PerfReport::fromJson(const util::Json &json)
{
    const util::Json *schema = json.find("schema");
    if (!schema || !schema->isString())
        return resilience::errorf(resilience::Errc::BadFormat,
                                  "perf report: missing 'schema'");
    if (schema->asString() != kSchema)
        return resilience::errorf(
            resilience::Errc::BadVersion,
            "perf report: schema '%s', expected '%s'",
            schema->asString().c_str(), kSchema);

    PerfReport report;
    if (auto v = json.countAt("frame_limit"); v.ok())
        report.frameLimit = *v;
    else
        return v.error();
    if (auto v = numberAt(json, "scale"); v.ok())
        report.scale = *v;
    else
        return v.error();
    if (const util::Json *profile = json.find("gpu_profile"))
        report.baseline = profile->asString() == "baseline";
    // Optional: older baselines carry no mode.
    if (const util::Json *mode = json.find("mem_mode");
        mode && mode->asString() != gpusim::kMemMode)
        return resilience::errorf(
            resilience::Errc::BadVersion,
            "perf report: mem_mode '%s' is not '%s' (sampled "
            "cache-model reports are no longer supported)",
            mode->asString().c_str(), gpusim::kMemMode);

    const util::Json *rows = json.find("benchmarks");
    if (!rows || !rows->isArray())
        return resilience::errorf(resilience::Errc::BadFormat,
                                  "perf report: missing 'benchmarks'");
    for (const util::Json &row : rows->items()) {
        BenchPerf b;
        const util::Json *alias = row.find("alias");
        if (!alias || !alias->isString())
            return resilience::errorf(resilience::Errc::BadFormat,
                                      "perf report: row missing "
                                      "'alias'");
        b.alias = alias->asString();
        struct {
            const char *key;
            double *out;
        } fields[] = {
            {"wall_seconds", &b.wallSeconds},
            {"frames_per_sec", &b.framesPerSec},
            {"mcycles_per_sec", &b.mcyclesPerSec},
        };
        auto frames = row.countAt("frames");
        if (!frames.ok())
            return frames.error();
        b.frames = *frames;
        auto cycles = row.countAt("cycles");
        if (!cycles.ok())
            return cycles.error();
        b.cycles = *cycles;
        for (const auto &field : fields) {
            auto v = numberAt(row, field.key);
            if (!v.ok())
                return v.error();
            *field.out = *v;
        }
        report.benches.push_back(std::move(b));
    }

    if (const util::Json *split = json.find("phase_split"))
        for (const util::Json &row : split->items()) {
            PhaseSplit p;
            if (const util::Json *name = row.find("phase"))
                p.name = name->asString();
            if (const util::Json *sec = row.find("seconds"))
                p.seconds = sec->asNumber();
            report.phases.push_back(std::move(p));
        }

    report.computeAggregates();
    return report;
}

resilience::Expected<void>
PerfReport::save(const std::string &path) const
{
    return resilience::atomicWriteFile(path, toJson().dump());
}

resilience::Expected<PerfReport>
PerfReport::load(const std::string &path)
{
    auto text = resilience::readFileToString(path);
    if (!text.ok())
        return text.error();
    auto json = util::Json::parse(*text);
    if (!json.ok())
        return json.error();
    return fromJson(*json);
}

resilience::Expected<PerfReport>
runHotpath(const PerfOptions &options)
{
    std::size_t frames = options.frames;
    if (frames == 0)
        frames = workloads::frameLimitFromEnv();

    std::vector<std::string> benches = options.benches;
    if (benches.empty())
        benches = workloads::benchmarkNames();

    PerfReport report;
    report.frameLimit = frames;
    report.scale = options.scale;
    report.baseline = options.baseline;

    gpusim::GpuConfig config =
        options.baseline ? gpusim::GpuConfig::baseline()
                         : gpusim::GpuConfig::evaluationScaled();

    // Attribution window over the whole harness: the simulator's own
    // scopes (geometry/raster/shade/memwalk) claim the hot loop, the
    // explicit scopes below claim the load phase, and whatever is
    // left lands in obs.host.other.
    obs::AttribRoot attribRoot;

    obs::PhaseProfiler profiler;
    for (const std::string &alias : benches) {
        gfx::SceneTrace scene;
        {
            obs::PhaseProfiler::Scoped load(profiler, "load");
            obs::AttribScope loadScope(obs::HostDomain::Load);
            auto built = workloads::tryBuildBenchmark(
                alias, options.scale, frames);
            if (!built.ok())
                return built.error();
            scene = std::move(*built);
        }

        gpusim::SceneBinding binding(scene);
        gpusim::TimingSimulator sim(config, binding);
        gpusim::GeometryProcessor geometry(config, binding);
        gpusim::GeometryIR ir;

        BenchPerf b;
        b.alias = alias;
        obs::TimelineRecorder::Span benchSpan("perf.bench",
                                              scene.numFrames(),
                                              alias);
        const double t0 = obs::wallSeconds();
        for (const gfx::FrameTrace &frame : scene.frames) {
            {
                obs::PhaseProfiler::Scoped geom(profiler, "geometry");
                obs::AttribScope geomScope(obs::HostDomain::Geometry);
                geometry.processInto(frame, ir);
            }
            obs::PhaseProfiler::Scoped timing(profiler, "timing");
            b.cycles += sim.simulate(ir).cycles;
            ++b.frames;
        }
        b.wallSeconds = obs::wallSeconds() - t0;
        if (b.wallSeconds > 0.0) {
            b.framesPerSec =
                static_cast<double>(b.frames) / b.wallSeconds;
            b.mcyclesPerSec = static_cast<double>(b.cycles) / 1e6 /
                              b.wallSeconds;
        }
        report.benches.push_back(std::move(b));
    }

    for (const obs::PhaseProfiler::Phase &p : profiler.phases())
        report.phases.push_back({p.name, p.seconds});
    report.computeAggregates();
    return report;
}

std::vector<PerfDelta>
comparePerfDeltas(const PerfReport &current,
                  const PerfReport &baseline, double bandPercent)
{
    std::vector<PerfDelta> deltas;
    auto check = [&](const std::string &what, double cur,
                     double base) {
        if (base <= 0.0)
            return;
        const double deltaPercent = (cur - base) / base * 100.0;
        if (deltaPercent < -bandPercent || deltaPercent > bandPercent)
            deltas.push_back({what, cur, base, deltaPercent});
    };
    for (const BenchPerf &cur : current.benches)
        for (const BenchPerf &base : baseline.benches)
            if (cur.alias == base.alias)
                check(cur.alias, cur.framesPerSec, base.framesPerSec);
    check("suite", current.framesPerSec, baseline.framesPerSec);
    return deltas;
}

std::vector<std::string>
compareReports(const PerfReport &current, const PerfReport &baseline,
               double bandPercent)
{
    std::vector<std::string> warnings;
    char line[192];
    for (const PerfDelta &d :
         comparePerfDeltas(current, baseline, bandPercent)) {
        std::snprintf(line, sizeof(line),
                      "%s: %.1f frames/sec vs baseline %.1f "
                      "(%+.1f%%, band +-%.0f%%)",
                      d.what.c_str(), d.current, d.baseline,
                      d.deltaPercent, bandPercent);
        warnings.emplace_back(line);
    }
    return warnings;
}

} // namespace msim::perf
