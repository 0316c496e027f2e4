#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>

#include "obs/trace.hh"
#include "obs/trace_export.hh"

using namespace msim::obs;

namespace
{

ObsConfig
enabledConfig(std::size_t capacity)
{
    ObsConfig config;
    config.traceEnabled = true;
    config.traceCapacity = capacity;
    return config;
}

/**
 * Minimal JSON well-formedness check: balanced braces/brackets
 * outside of strings.
 */
bool
jsonParses(const std::string &text)
{
    std::vector<char> stack;
    bool inString = false;
    bool escaped = false;
    for (char c : text) {
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        switch (c) {
          case '"': inString = true; break;
          case '[': stack.push_back(']'); break;
          case '{': stack.push_back('}'); break;
          case ']':
          case '}':
            if (stack.empty() || stack.back() != c)
                return false;
            stack.pop_back();
            break;
          default: break;
        }
    }
    return stack.empty() && !inString;
}

} // namespace

TEST(TraceBuffer, DisabledByDefaultAndEmitsNothing)
{
    TraceBuffer buf;
    EXPECT_FALSE(buf.enabled());
    EXPECT_EQ(buf.capacity(), ObsConfig().traceCapacity);
    buf.emit("stage", TraceCategory::Stage, 0, 0, 10);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.emittedCount(), 0u);
    EXPECT_EQ(buf.droppedCount(), 0u);
    EXPECT_TRUE(buf.snapshot().empty());
}

TEST(TraceBuffer, RingKeepsMostRecentAndCountsDrops)
{
    TraceBuffer buf(enabledConfig(4));
    for (std::uint64_t i = 0; i < 6; ++i)
        buf.emit("e", TraceCategory::Stage, 0, i, i + 1, i);
    EXPECT_EQ(buf.size(), 4u);
    EXPECT_EQ(buf.emittedCount(), 6u);
    EXPECT_EQ(buf.droppedCount(), 2u);

    std::vector<std::uint64_t> args;
    buf.forEach(
        [&](const TraceEvent &e) { args.push_back(e.arg); });
    ASSERT_EQ(args.size(), 4u);
    EXPECT_EQ(args.front(), 2u) << "oldest retained first";
    EXPECT_EQ(args.back(), 5u);
}

TEST(TraceBuffer, ClearResets)
{
    TraceBuffer buf(enabledConfig(8));
    buf.instant("i", TraceCategory::Frame, 1, 42);
    EXPECT_EQ(buf.size(), 1u);
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
}

TEST(ChromeTrace, ExportsParsableJsonWithRequiredFields)
{
    TraceBuffer buf(enabledConfig(16));
    buf.emit("vertex_shader", TraceCategory::Stage, 0, 100, 700, 3);
    buf.emit("fragment_queue", TraceCategory::Queue, 0, 800, 900, 12);
    buf.instant("frame", TraceCategory::Frame, 0, 1000);

    std::ostringstream os;
    writeChromeTrace(os, buf.snapshot(), 600.0);
    const std::string json = os.str();

    EXPECT_TRUE(jsonParses(json)) << json;
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    // Required trace_event fields.
    EXPECT_NE(json.find("\"ph\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\""), std::string::npos);
    EXPECT_NE(json.find("\"name\""), std::string::npos);
    // Event names round-trip.
    EXPECT_NE(json.find("\"vertex_shader\""), std::string::npos);
    EXPECT_NE(json.find("\"fragment_queue\""), std::string::npos);
    // Complete events carry durations, instants use ph:i.
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    // Lane labels (Daisen-style unit rows).
    EXPECT_NE(json.find("thread_name"), std::string::npos);
}

TEST(ChromeTrace, TimestampsScaleWithFrequency)
{
    TraceBuffer buf(enabledConfig(4));
    // 600 cycles at 600 MHz = 1 us.
    buf.emit("stage", TraceCategory::Stage, 0, 600, 1200);
    std::ostringstream os;
    writeChromeTrace(os, buf.snapshot(), 600.0);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"ts\":1.000"), std::string::npos) << json;
    EXPECT_NE(json.find("\"dur\":1.000"), std::string::npos) << json;
}

TEST(TraceCsv, RoundTripsEventRows)
{
    TraceBuffer buf(enabledConfig(4));
    buf.emit("dram", TraceCategory::Dram, 2, 10, 60, 64);
    std::ostringstream os;
    writeTraceCsv(os, buf.snapshot());
    const std::string csv = os.str();
    EXPECT_NE(csv.find("name,category,frame,begin_cycle,end_cycle,arg"),
              std::string::npos);
    EXPECT_NE(csv.find("dram,dram,2,10,60,64"), std::string::npos)
        << csv;
}

TEST(ObsConfig, ReadsEnvironment)
{
    ::setenv("MEGSIM_TRACE_CAPACITY", "128", 1);
    ::setenv("MEGSIM_STATS_DUMP", "gpu.l2.*", 1);
    const ObsConfig config = ObsConfig::fromEnv();
    // Only `megsim-cli trace` reads the ring, and it turns recording
    // on itself; no environment variable does.
    EXPECT_FALSE(config.traceEnabled);
    EXPECT_EQ(config.traceCapacity, 128u);
    EXPECT_EQ(config.statsDump, "gpu.l2.*");
    ::unsetenv("MEGSIM_TRACE_CAPACITY");
    ::unsetenv("MEGSIM_STATS_DUMP");
    const ObsConfig off = ObsConfig::fromEnv();
    EXPECT_FALSE(off.traceEnabled);
    EXPECT_EQ(off.traceCapacity, ObsConfig().traceCapacity);
    EXPECT_TRUE(off.statsDump.empty());
}

TEST(ObsConfig, MalformedTraceCapacityWarnsOnceAndKeepsTheDefault)
{
    const std::size_t fallback = ObsConfig().traceCapacity;
    // Not a whole number of at least 1: a trailing unit, a word, zero,
    // a fraction, a negative and a non-finite value.
    for (const char *bad : {"64x", "abc", "0", "2.5", "-8", "inf"}) {
        ::setenv("MEGSIM_TRACE_CAPACITY", bad, 1);
        ::testing::internal::CaptureStderr();
        const ObsConfig first = ObsConfig::fromEnv();
        const ObsConfig second = ObsConfig::fromEnv();
        const std::string err = ::testing::internal::GetCapturedStderr();
        EXPECT_EQ(first.traceCapacity, fallback) << bad;
        EXPECT_EQ(second.traceCapacity, fallback) << bad;
        const std::string named =
            std::string("MEGSIM_TRACE_CAPACITY='") + bad + "'";
        const std::size_t at = err.find(named);
        EXPECT_NE(at, std::string::npos) << bad << ": " << err;
        EXPECT_EQ(err.find(named, at + 1), std::string::npos)
            << "warned twice for " << bad << ": " << err;
    }
    ::unsetenv("MEGSIM_TRACE_CAPACITY");
}
