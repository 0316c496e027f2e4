/**
 * @file
 * Unit tests for the run-telemetry layer: obs::Span totals and the
 * per-worker host timelines (TimelineRecorder + Chrome export),
 * host-cost attribution (AttribRoot/AttribScope/Span + obs.host.*
 * flush), and the strict megsim-run-v1 JSONL run ledger with its
 * seeded mutation harness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "exec/pool.hh"
#include "obs/attrib.hh"
#include "obs/ledger.hh"
#include "obs/profile.hh"
#include "obs/stats.hh"
#include "obs/timeline.hh"
#include "resilience/expected.hh"
#include "scratch_dir.hh"

using namespace msim;
using namespace msim::obs;

namespace
{

/** Telemetry flags are process globals: restore them per test. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        timelineWas_ = timelineEnabled();
        attribWas_ = hostAttribEnabled();
    }

    void
    TearDown() override
    {
        setTimelineEnabled(timelineWas_);
        setHostAttribEnabled(attribWas_);
    }

  private:
    bool timelineWas_ = false;
    bool attribWas_ = false;
};

/** Burn a little wall time so attributed seconds are non-zero. */
double
spin(double seconds)
{
    const double until = wallSeconds() + seconds;
    double sink = 0.0;
    while (wallSeconds() < until)
        sink += std::sqrt(sink + 1.0);
    return sink;
}

} // namespace

TEST_F(TelemetryTest, TimelineDisabledRecordsNothing)
{
    setTimelineEnabled(false);
    TimelineRecorder recorder(1);
    recorder.record("x", 0.0, 1.0);
    StatsRegistry sandbox;
    {
        ProcessRegistryOverride statsRedirect(sandbox);
        TimelineOverride redirect(recorder);
        Span span("y");
    }
    EXPECT_EQ(recorder.size(), 0u);
    // The span still timed itself.
    ASSERT_NE(sandbox.find("obs.span.y.entries"), nullptr);
    EXPECT_EQ(sandbox.find("obs.span.y.entries")->value(), 1.0);
}

TEST_F(TelemetryTest, TimelineMergePreservesTracks)
{
    setTimelineEnabled(true);
    TimelineRecorder caller(0);
    TimelineRecorder worker(3);
    worker.record("chunk", 1.0, 2.0, 16);
    caller.record("wait", 0.5, 2.5);
    caller.mergeFrom(worker);
    EXPECT_EQ(worker.size(), 0u) << "merge moves, not copies";
    ASSERT_EQ(caller.size(), 2u);
    EXPECT_EQ(caller.spans()[0].track, 0u);
    EXPECT_EQ(caller.spans()[1].track, 3u);
    EXPECT_EQ(caller.spans()[1].arg, 16u);
}

TEST_F(TelemetryTest, TimelineOverrideRedirectsSpans)
{
    setTimelineEnabled(true);
    TimelineRecorder shard(2);
    StatsRegistry sandbox;
    {
        ProcessRegistryOverride statsRedirect(sandbox);
        TimelineOverride redirect(shard);
        Span span("inner", 7, "detail");
    }
    ASSERT_EQ(shard.size(), 1u);
    EXPECT_STREQ(shard.spans()[0].name, "inner");
    EXPECT_EQ(shard.spans()[0].track, 2u);
    EXPECT_EQ(shard.spans()[0].arg, 7u);
    EXPECT_EQ(shard.spans()[0].detail, "detail");
    EXPECT_GE(shard.spans()[0].end, shard.spans()[0].begin);
}

TEST_F(TelemetryTest, ChromeExportHasOneLanePerWorker)
{
    std::vector<HostSpan> spans;
    spans.push_back(HostSpan{"job", "", 1, 10.0, 10.5, 3});
    spans.push_back(HostSpan{"job", "alias", 0, 10.1, 10.2, 0});
    std::ostringstream os;
    writeTimelineChrome(os, spans, 4);
    const std::string text = os.str();
    // Metadata names every worker lane even if it recorded nothing.
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("worker 0 (caller)"), std::string::npos);
    EXPECT_NE(text.find("worker 1"), std::string::npos);
    EXPECT_NE(text.find("worker 3"), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
    // Timestamps are relative to the earliest span begin.
    EXPECT_NE(text.find("\"ts\":0"), std::string::npos);
}

TEST_F(TelemetryTest, PoolJobSpansLandOnWorkerTracks)
{
    // Every span counts itself through the per-worker registry shards,
    // so the totals do not depend on the thread count; only the
    // timeline depends on the flag.
    for (const bool timeline : {false, true}) {
        for (const std::size_t threads : {1u, 2u, 8u}) {
            SCOPED_TRACE(std::to_string(threads) + " threads, timeline " +
                         (timeline ? "on" : "off"));
            setTimelineEnabled(timeline);
            TimelineRecorder::global().clear();
            StatsRegistry sandbox;
            {
                ProcessRegistryOverride redirect(sandbox);
                exec::Pool pool(threads);
                // Static chunking pins a contiguous range to each
                // worker, so every worker thread is guaranteed to
                // record a chunk span — under dynamic chunking a fast
                // caller can drain a trivial job before the workers
                // even wake.
                auto err = pool.parallelFor(
                    64,
                    [](std::size_t,
                       std::size_t) -> resilience::Expected<void> {
                        Span span("item");
                        return {};
                    },
                    exec::Chunking::Static);
                ASSERT_TRUE(err.ok());
            }
            const Stat *entries = sandbox.find("obs.span.item.entries");
            ASSERT_NE(entries, nullptr);
            EXPECT_EQ(entries->value(), 64.0);
            ASSERT_NE(sandbox.find("obs.span.item.seconds"), nullptr);
            EXPECT_GE(sandbox.find("obs.span.item.seconds")->value(), 0.0);

            const std::vector<HostSpan> &spans =
                TimelineRecorder::global().spans();
            if (!timeline) {
                EXPECT_TRUE(spans.empty());
                continue;
            }
            std::size_t items = 0;
            bool sawChunk = false;
            bool sawNonCallerTrack = false;
            for (const HostSpan &s : spans) {
                EXPECT_LT(s.track, threads);
                if (std::string(s.name) == "item")
                    ++items;
                if (std::string(s.name) == "pool.chunk")
                    sawChunk = true;
                if (s.track > 0)
                    sawNonCallerTrack = true;
            }
            EXPECT_EQ(items, 64u);
            if (threads > 1) {
                EXPECT_TRUE(sawChunk)
                    << "pool chunks are recorded as spans";
                EXPECT_TRUE(sawNonCallerTrack)
                    << "worker shards keep their own track ids through "
                       "the merge";
            }
            TimelineRecorder::global().clear();
        }
    }
}

TEST_F(TelemetryTest, SpanTotalsAreReadBackInNameOrder)
{
    StatsRegistry sandbox;
    {
        ProcessRegistryOverride redirect(sandbox);
        // gt.frame's keys sort between gt's two keys in the registry.
        Span pass("gt");
        Span frame("gt.frame");
        Span next("gt.frame");
    }
    sandbox.scalar("obs.span.gt.other") += 5.0; // not a span total
    const std::vector<SpanTotal> totals = spanTotals(sandbox);
    ASSERT_EQ(totals.size(), 2u);
    EXPECT_EQ(totals[0].name, "gt");
    EXPECT_EQ(totals[0].entries, 1u);
    EXPECT_EQ(totals[1].name, "gt.frame");
    EXPECT_EQ(totals[1].entries, 2u);
    EXPECT_GE(totals[1].seconds, 0.0);
}

TEST_F(TelemetryTest, AttribDisabledLeavesRegistryUntouched)
{
    setHostAttribEnabled(false);
    StatsRegistry sandbox;
    {
        ProcessRegistryOverride redirect(sandbox);
        AttribRoot root;
        AttribScope scope(HostDomain::MemWalk);
        spin(0.001);
    }
    EXPECT_EQ(sandbox.find("obs.host.memwalk.seconds"), nullptr);
}

TEST_F(TelemetryTest, AttribExclusiveAccountingAndFlush)
{
    setHostAttribEnabled(true);
    // A Span that names its domain must charge time exactly as the
    // AttribScope it replaces: run the same nest with each.
    for (const bool useSpan : {false, true}) {
        SCOPED_TRACE(useSpan ? "Span" : "AttribScope");
        StatsRegistry sandbox;
        double outer = 0.0;
        {
            ProcessRegistryOverride redirect(sandbox);
            AttribRoot root;
            const double t0 = wallSeconds();
            {
                std::optional<AttribScope> scope;
                std::optional<Span> span;
                if (useSpan)
                    span.emplace("test.raster", HostDomain::Raster);
                else
                    scope.emplace(HostDomain::Raster);
                spin(0.002);
                {
                    // Nested scope: its time must NOT also count as
                    // raster (exclusive accounting).
                    AttribScope mem(HostDomain::MemWalk);
                    spin(0.002);
                }
                spin(0.002);
            }
            outer = wallSeconds() - t0;
        }
        const Stat *raster = sandbox.find("obs.host.raster.seconds");
        const Stat *mem = sandbox.find("obs.host.memwalk.seconds");
        ASSERT_NE(raster, nullptr);
        ASSERT_NE(mem, nullptr);
        EXPECT_GT(raster->value(), 0.0);
        EXPECT_GT(mem->value(), 0.0);
        // Exclusive accounting splits the measured window between the
        // two domains instead of counting the nested memwalk time
        // twice. The bound is the window itself, not a fixed 6 ms, so
        // a loaded host that stretches the spins cannot fail it; 1 ns
        // absorbs rounding.
        EXPECT_LE(raster->value() + mem->value(), outer + 1e-9);
        EXPECT_LE(raster->value(), outer - mem->value() + 1e-9);
        EXPECT_DOUBLE_EQ(
            sandbox.find("obs.host.raster.entries")->value(), 1.0);
        EXPECT_DOUBLE_EQ(
            sandbox.find("obs.host.memwalk.entries")->value(), 1.0);
        if (!useSpan)
            continue;
        // The span's own total is the time it charged, nested scope
        // included: it switches the domain on its own clock reads.
        const Stat *seconds =
            sandbox.find("obs.span.test.raster.seconds");
        ASSERT_NE(seconds, nullptr);
        EXPECT_NEAR(seconds->value(), raster->value() + mem->value(),
                    1e-9);
        EXPECT_DOUBLE_EQ(
            sandbox.find("obs.span.test.raster.entries")->value(), 1.0);
    }
}

TEST_F(TelemetryTest, AttribSnapshotComputesNamedCoverage)
{
    setHostAttribEnabled(true);
    StatsRegistry sandbox;
    ProcessRegistryOverride redirect(sandbox);
    {
        AttribRoot root;
        AttribScope shade(HostDomain::Shade);
        spin(0.004);
    }
    const HostAttribSnapshot snap = readHostAttrib();
    EXPECT_GT(snap.totalSeconds(), 0.0);
    // Nearly the whole window is inside the shade scope.
    EXPECT_GT(snap.coverage(), 0.5);
    EXPECT_LE(snap.coverage(), 1.0);
    EXPECT_GT(snap.seconds[static_cast<std::size_t>(
                  HostDomain::Shade)],
              0.0);
}

TEST_F(TelemetryTest, NestedAttribRootIsANoOp)
{
    setHostAttribEnabled(true);
    StatsRegistry sandbox;
    ProcessRegistryOverride redirect(sandbox);
    {
        AttribRoot outer;
        {
            AttribRoot inner; // must not close/flush the window
            AttribScope load(HostDomain::Load);
            spin(0.001);
        }
        // Window is still open: nothing flushed yet.
        EXPECT_EQ(sandbox.find("obs.host.load.seconds"), nullptr);
        AttribScope geom(HostDomain::Geometry);
        spin(0.001);
    }
    EXPECT_NE(sandbox.find("obs.host.load.seconds"), nullptr);
    EXPECT_NE(sandbox.find("obs.host.geometry.seconds"), nullptr);
}

TEST_F(TelemetryTest, LedgerRoundTripsThroughStrictParser)
{
    RunLedger ledger;
    {
        util::Json fields = util::Json::object();
        fields.set("tool", "test");
        fields.set("threads", 4);
        ledger.event("run_start", std::move(fields));
    }
    {
        util::Json fields = util::Json::object();
        fields.set("name", "clustering");
        fields.set("seconds", 1.25);
        ledger.event("phase", std::move(fields));
    }
    {
        util::Json values = util::Json::object();
        values.set("suite_reduction", 88.5);
        util::Json fields = util::Json::object();
        fields.set("values", std::move(values));
        ledger.event("metrics", std::move(fields));
    }
    {
        util::Json fields = util::Json::object();
        fields.set("wall_seconds", 2.5);
        fields.set("status", "ok");
        ledger.event("run_end", std::move(fields));
    }

    auto events = RunLedger::parse(ledger.serialize());
    ASSERT_TRUE(events.ok()) << events.error().message;
    ASSERT_EQ(events->size(), 4u);
    // seq is stamped monotonically.
    for (std::size_t i = 0; i < events->size(); ++i)
        EXPECT_EQ((*events)[i].find("seq")->asNumber(),
                  static_cast<double>(i));
}

TEST_F(TelemetryTest, LedgerRejectsUnknownField)
{
    RunLedger ledger;
    util::Json fields = util::Json::object();
    fields.set("tool", "test");
    fields.set("threads", 1);
    ledger.event("run_start", std::move(fields));

    util::Json ev = ledger.events()[0];
    ev.set("drive_by_field", 1.0);
    auto valid = RunLedger::validateEvent(ev);
    ASSERT_FALSE(valid.ok());
    EXPECT_NE(valid.error().message.find("drive_by_field"),
              std::string::npos);

    // And parse() names the offending line.
    const std::string text = ledger.serialize() + ev.dump(0) + "\n";
    auto parsed = RunLedger::parse(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error().message.find("line 2"),
              std::string::npos);
}

TEST_F(TelemetryTest, LedgerRejectsMissingRequiredAndBadKinds)
{
    util::Json ev = util::Json::object();
    ev.set("schema", RunLedger::kSchema);
    ev.set("seq", 0);
    ev.set("event", "run_start");
    ev.set("t", 0.0);
    ev.set("tool", "test"); // threads missing
    auto missing = RunLedger::validateEvent(ev);
    ASSERT_FALSE(missing.ok());
    EXPECT_NE(missing.error().message.find("threads"),
              std::string::npos);

    ev.set("threads", "eight"); // wrong kind
    auto badKind = RunLedger::validateEvent(ev);
    ASSERT_FALSE(badKind.ok());
    EXPECT_NE(badKind.error().message.find("expected number"),
              std::string::npos);
    // A number that is not a count: negative, fractional, infinite.
    for (const char *bad : {"-1", "2.5", "1e400"}) {
        ev.set("threads", *util::Json::parse(bad));
        auto notCount = RunLedger::validateEvent(ev);
        ASSERT_FALSE(notCount.ok()) << bad;
        EXPECT_EQ(notCount.error().code, resilience::Errc::BadFormat)
            << bad;
        EXPECT_NE(notCount.error().message.find("'threads'"),
                  std::string::npos)
            << notCount.error().message;
    }
}

TEST_F(TelemetryTest, LedgerRejectsUnknownEventAndBadSchema)
{
    util::Json ev = util::Json::object();
    ev.set("schema", RunLedger::kSchema);
    ev.set("seq", 0);
    ev.set("event", "no_such_event");
    ev.set("t", 0.0);
    EXPECT_FALSE(RunLedger::validateEvent(ev).ok());

    ev.set("event", "run_end");
    ev.set("schema", "megsim-run-v999");
    auto bad = RunLedger::validateEvent(ev);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, resilience::Errc::BadVersion);
}

TEST_F(TelemetryTest, EmptyLedgerIsTruncated)
{
    auto parsed = RunLedger::parse("");
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, resilience::Errc::Truncated);
}

TEST_F(TelemetryTest, LedgerSaveLoadRoundTrip)
{
    const std::filesystem::path dir =
        msim::test::scratchDir() /
        "megsim_telemetry_test";
    std::filesystem::create_directories(dir);
    const std::string path = (dir / "run.jsonl").string();

    RunLedger ledger;
    util::Json fields = util::Json::object();
    fields.set("tool", "test");
    fields.set("threads", 2);
    ledger.event("run_start", std::move(fields));
    ASSERT_TRUE(ledger.save(path).ok());

    auto events = RunLedger::load(path);
    ASSERT_TRUE(events.ok()) << events.error().message;
    EXPECT_EQ(events->size(), 1u);
    std::filesystem::remove_all(dir);
}

namespace
{

/** A ledger holding one event of every in-process kind. */
std::string
everyKindLedger()
{
    RunLedger ledger;
    {
        util::Json fields = util::Json::object();
        fields.set("tool", "campaign");
        fields.set("threads", 4);
        fields.set("workers", 0);
        fields.set("frame_limit", 48);
        fields.set("scale", 1.0);
        fields.set("gpu_profile", "evaluation");
        util::Json benches = util::Json::array();
        benches.push("hcr");
        benches.push("jjo");
        fields.set("benches", std::move(benches));
        fields.set("fingerprint", "00112233aabbccdd");
        util::Json env = util::Json::object();
        env.set("MEGSIM_FRAME_LIMIT", "48");
        fields.set("env", std::move(env));
        fields.set("mem_mode", "exact");
        ledger.event("run_start", std::move(fields));
    }
    {
        util::Json fields = util::Json::object();
        fields.set("bench", "hcr");
        fields.set("status", "built");
        fields.set("resumed_frames", 0);
        ledger.event("cache", std::move(fields));
    }
    {
        util::Json fields = util::Json::object();
        fields.set("name", "gt.frame");
        fields.set("seconds", 1.0 / 3.0);
        fields.set("entries", 96);
        ledger.event("phase", std::move(fields));
    }
    {
        util::Json fields = util::Json::object();
        fields.set("alias", "hcr");
        fields.set("frames", 48);
        fields.set("chosen_k", 5);
        fields.set("representatives", 5);
        fields.set("reduction", 9.6);
        fields.set("wall_seconds", 0.125);
        fields.set("cache_status", "built");
        util::Json error = util::Json::object();
        error.set("cycles", 0.25);
        error.set("dram", -1.5e-3);
        fields.set("error", std::move(error));
        fields.set("mem_mode", "exact");
        ledger.event("bench", std::move(fields));
    }
    {
        util::Json domains = util::Json::object();
        domains.set("other", 0.01);
        domains.set("memwalk", 2.5);
        util::Json fields = util::Json::object();
        fields.set("domains", std::move(domains));
        fields.set("coverage", 0.99);
        fields.set("wall_seconds", 3.0);
        ledger.event("attrib", std::move(fields));
    }
    {
        util::Json values = util::Json::object();
        values.set("suite_reduction", 88.5);
        values.set("total_frames", 96);
        util::Json fields = util::Json::object();
        fields.set("values", std::move(values));
        ledger.event("metrics", std::move(fields));
    }
    {
        util::Json fields = util::Json::object();
        fields.set("wall_seconds", 3.5);
        fields.set("status", "ok");
        ledger.event("run_end", std::move(fields));
    }
    return ledger.serialize();
}

/**
 * parse() must return events, or an error naming a line that exists
 * in @p text; only a text with no non-empty line has no line to name,
 * and that is Truncated.
 */
void
expectEventsOrALineError(const std::string &text, const std::string &what)
{
    const auto parsed = RunLedger::parse(text);
    if (parsed.ok()) {
        EXPECT_FALSE(parsed->empty()) << what;
        return;
    }
    const std::string &message = parsed.error().message;
    std::size_t line = 0;
    if (std::sscanf(message.c_str(), "ledger line %zu:", &line) == 1) {
        const std::size_t lines =
            static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')) +
            1;
        EXPECT_GE(line, 1u) << what << ": " << message;
        EXPECT_LE(line, lines) << what << ": " << message;
        return;
    }
    EXPECT_EQ(parsed.error().code, resilience::Errc::Truncated)
        << what << ": " << message;
    EXPECT_EQ(text.find_first_not_of('\n'), std::string::npos)
        << what << ": " << message;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line + "\n");
    return lines;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &line : lines)
        out += line;
    return out;
}

/** @p text with the value of the first `"key":` replaced by @p with. */
std::string
replaceValue(std::string text, const std::string &key,
             const std::string &with)
{
    const std::string field = "\"" + key + "\":";
    const std::size_t at = text.find(field);
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos)
        return text;
    const std::size_t begin = at + field.size();
    text.replace(begin, text.find_first_of(",}", begin) - begin, with);
    return text;
}

} // namespace

TEST_F(TelemetryTest, LedgerMutationNeverCrashesTheParser)
{
    const std::string golden = everyKindLedger();
    const auto whole = RunLedger::parse(golden);
    ASSERT_TRUE(whole.ok()) << whole.error().message;
    ASSERT_EQ(whole->size(), 7u);

    // Fixed seed: the same inputs on every run.
    std::mt19937_64 rng(0x5eedu);
    std::size_t inputs = 0;
    auto check = [&](const std::string &text, const std::string &what) {
        ++inputs;
        expectEventsOrALineError(text, what);
    };

    for (std::size_t n = 0; n <= golden.size(); ++n)
        check(golden.substr(0, n), "truncated at " + std::to_string(n));
    for (int i = 0; i < 1000; ++i) {
        std::string text = golden;
        const std::size_t at = rng() % text.size();
        text[at] = static_cast<char>(text[at] ^ (1u << (rng() % 8)));
        check(text, "bit flip at " + std::to_string(at));
    }
    for (std::size_t at = 0; at < golden.size(); ++at) {
        check(std::string(golden).erase(at, 1),
              "deletion at " + std::to_string(at));
        check(std::string(golden).insert(
                  at, 1, static_cast<char>(rng() % 256)),
              "insertion at " + std::to_string(at));
        check(std::string(golden).insert(at, 1, '\0'),
              "NUL at " + std::to_string(at));
    }

    // Whole-line damage: every duplicated and every swapped pair is
    // refused, naming a line, because seq is each event's index.
    const std::vector<std::string> lines = splitLines(golden);
    ASSERT_EQ(lines.size(), 7u);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        std::vector<std::string> dup = lines;
        dup.insert(dup.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
        const std::string what = "line " + std::to_string(i + 1);
        check(joinLines(dup), what + " duplicated");
        EXPECT_FALSE(RunLedger::parse(joinLines(dup)).ok()) << what;
        for (std::size_t j = i + 1; j < lines.size(); ++j) {
            std::vector<std::string> swapped = lines;
            std::swap(swapped[i], swapped[j]);
            check(joinLines(swapped),
                  what + " swapped with " + std::to_string(j + 1));
            EXPECT_FALSE(RunLedger::parse(joinLines(swapped)).ok())
                << what << " swapped with " << j + 1;
        }
    }

    std::string crlf;
    for (char c : golden)
        crlf += c == '\n' ? std::string("\r\n") : std::string(1, c);
    check(crlf, "CRLF line ends");

    // Nesting past the parser's 64 levels, and far past it.
    for (const std::size_t depth : {65u, 66u, 100u, 100000u}) {
        const std::string text = replaceValue(
            golden, "suite_reduction",
            std::string(depth, '[') + std::string(depth, ']'));
        check(text, "nesting " + std::to_string(depth));
        EXPECT_FALSE(RunLedger::parse(text).ok()) << depth;
    }

    // Cells a ledger never holds: an overflowing number and nan, in a
    // number field, a count field and the seq stamp.
    for (const char *bad : {"1e999", "-1e999", "nan", "NaN"}) {
        check(replaceValue(golden, "seconds", bad),
              std::string("seconds ") + bad);
        const std::string threads = replaceValue(golden, "threads", bad);
        check(threads, std::string("threads ") + bad);
        EXPECT_FALSE(RunLedger::parse(threads).ok()) << bad;
        const std::string seq = replaceValue(golden, "seq", bad);
        check(seq, std::string("seq ") + bad);
        EXPECT_FALSE(RunLedger::parse(seq).ok()) << bad;
    }
    EXPECT_GT(inputs, 5000u);
}
