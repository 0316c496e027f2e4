#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/trace.hh"
#include "obs/trace_export.hh"

using namespace msim::obs;

namespace
{

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
    EXPECT_EQ(buf.capacity(), 0u);
    buf.emit("stage", TraceCategory::Stage, 0, 0, 10);
    EXPECT_EQ(buf.size(), 0u);
    EXPECT_EQ(buf.emittedCount(), 0u);
    EXPECT_EQ(buf.droppedCount(), 0u);
    EXPECT_TRUE(buf.snapshot().empty());
}

TEST(TraceBuffer, RingKeepsMostRecentAndCountsDrops)
{
    TraceBuffer buf(4);
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
    TraceBuffer buf(8);
    buf.instant("i", TraceCategory::Frame, 1, 42);
    EXPECT_EQ(buf.size(), 1u);
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
}

TEST(ChromeTrace, ExportsParsableJsonWithRequiredFields)
{
    TraceBuffer buf(16);
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
    TraceBuffer buf(4);
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
    TraceBuffer buf(4);
    buf.emit("dram", TraceCategory::Dram, 2, 10, 60, 64);
    std::ostringstream os;
    writeTraceCsv(os, buf.snapshot());
    const std::string csv = os.str();
    EXPECT_NE(csv.find("name,category,frame,begin_cycle,end_cycle,arg"),
              std::string::npos);
    EXPECT_NE(csv.find("dram,dram,2,10,60,64"), std::string::npos)
        << csv;
}
