/**
 * @file
 * Unit tests for the run-telemetry layer: per-worker host timelines
 * (TimelineRecorder + Chrome export), host-cost attribution
 * (AttribRoot/AttribScope + obs.host.* flush), and the strict
 * megsim-run-v1 JSONL run ledger.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
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
    {
        TimelineOverride redirect(recorder);
        TimelineRecorder::Span span("y");
    }
    EXPECT_EQ(recorder.size(), 0u);
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
    {
        TimelineOverride redirect(shard);
        TimelineRecorder::Span span("inner", 7, "detail");
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
    setTimelineEnabled(true);
    TimelineRecorder::global().clear();
    exec::Pool pool(4);
    // Static chunking pins a contiguous range to each worker, so every
    // worker thread is guaranteed to record a chunk span — under
    // dynamic chunking a fast caller can drain a trivial job before
    // the workers even wake.
    auto err = pool.parallelFor(
        64,
        [](std::size_t, std::size_t) -> resilience::Expected<void> {
            TimelineRecorder::Span span("item");
            return {};
        },
        exec::Chunking::Static);
    ASSERT_TRUE(err.ok());
    const std::vector<HostSpan> &spans =
        TimelineRecorder::global().spans();
    ASSERT_FALSE(spans.empty());
    bool sawChunk = false;
    bool sawNonCallerTrack = false;
    for (const HostSpan &s : spans) {
        EXPECT_LT(s.track, 4u);
        if (std::string(s.name) == "pool.chunk")
            sawChunk = true;
        if (s.track > 0)
            sawNonCallerTrack = true;
    }
    EXPECT_TRUE(sawChunk) << "pool chunks are recorded as spans";
    EXPECT_TRUE(sawNonCallerTrack)
        << "worker shards keep their own track ids through the merge";
    TimelineRecorder::global().clear();
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
    StatsRegistry sandbox;
    double outer = 0.0;
    {
        ProcessRegistryOverride redirect(sandbox);
        AttribRoot root;
        const double t0 = wallSeconds();
        {
            AttribScope raster(HostDomain::Raster);
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
    // Exclusive accounting splits the measured window between the two
    // domains instead of counting the nested memwalk time twice. The
    // bound is the window itself, not a fixed 6 ms, so a loaded host
    // that stretches the spins cannot fail it; 1 ns absorbs rounding.
    EXPECT_LE(raster->value() + mem->value(), outer + 1e-9);
    EXPECT_LE(raster->value(), outer - mem->value() + 1e-9);
    EXPECT_DOUBLE_EQ(
        sandbox.find("obs.host.raster.entries")->value(), 1.0);
    EXPECT_DOUBLE_EQ(
        sandbox.find("obs.host.memwalk.entries")->value(), 1.0);
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
