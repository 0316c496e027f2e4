#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>

#include "obs/profile.hh"

using namespace msim::obs;

TEST(PhaseProfiler, AccumulatesNamedPhases)
{
    PhaseProfiler profiler;
    EXPECT_TRUE(profiler.empty());
    profiler.add("functional", 1.5);
    profiler.add("clustering", 0.5);
    profiler.add("functional", 0.5);

    ASSERT_EQ(profiler.phases().size(), 2u);
    EXPECT_EQ(profiler.phases()[0].name, "functional");
    EXPECT_DOUBLE_EQ(profiler.phases()[0].seconds, 2.0);
    EXPECT_EQ(profiler.phases()[0].entries, 2u);
    EXPECT_EQ(profiler.phases()[1].name, "clustering");
    EXPECT_DOUBLE_EQ(profiler.totalSeconds(), 2.5);
}

TEST(PhaseProfiler, PreservesInsertionOrder)
{
    PhaseProfiler profiler;
    profiler.add("b", 0.1);
    profiler.add("a", 0.1);
    ASSERT_EQ(profiler.phases().size(), 2u);
    EXPECT_EQ(profiler.phases()[0].name, "b");
    EXPECT_EQ(profiler.phases()[1].name, "a");
}

TEST(PhaseProfiler, ScopedAddsElapsedTime)
{
    PhaseProfiler profiler;
    {
        PhaseProfiler::Scoped scope(profiler, "scoped");
    }
    ASSERT_EQ(profiler.phases().size(), 1u);
    EXPECT_EQ(profiler.phases()[0].name, "scoped");
    EXPECT_GE(profiler.phases()[0].seconds, 0.0);
}

TEST(PhaseProfiler, ReportNamesEveryPhase)
{
    PhaseProfiler profiler;
    profiler.add("functional", 1.0);
    profiler.add("estimation", 3.0);
    std::ostringstream os;
    profiler.report(os);
    EXPECT_NE(os.str().find("functional"), std::string::npos);
    EXPECT_NE(os.str().find("estimation"), std::string::npos);
}

TEST(PhaseProfiler, ClearEmpties)
{
    PhaseProfiler profiler;
    profiler.add("x", 1.0);
    profiler.clear();
    EXPECT_TRUE(profiler.empty());
    EXPECT_DOUBLE_EQ(profiler.totalSeconds(), 0.0);
}

TEST(PhaseProfiler, GlobalIsASingleton)
{
    EXPECT_EQ(&PhaseProfiler::global(), &PhaseProfiler::global());
}

TEST(Heartbeat, ShortRunsStaySilent)
{
    // A sub-interval run must neither print nor crash.
    Heartbeat beat(10, "test", 60.0);
    for (std::size_t i = 0; i <= 10; ++i)
        beat.tick(i);
    beat.finish();
}

TEST(Heartbeat, RateCountsFromTheFirstTick)
{
    // A campaign builds every game's pass up front, so a pass may
    // wait long after construction. Its first tick starts the clock
    // and the done-count and prints nothing, whatever the wait.
    Heartbeat beat(100, "queued", 0.01);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    ::testing::internal::CaptureStderr();
    const double beforeFirst = wallSeconds();
    beat.tick(1);
    const double afterFirst = wallSeconds();
    EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");

    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ::testing::internal::CaptureStderr();
    const double beforeThird = wallSeconds();
    beat.tick(3);
    const double afterThird = wallSeconds();
    const std::string line = ::testing::internal::GetCapturedStderr();
    beat.finish();

    // Two frames since the first tick, over the time between the two
    // ticks (bracketed by the reads around them; %.1f rounds).
    std::size_t done = 0, total = 0;
    double percent = 0.0, rate = 0.0;
    ASSERT_EQ(std::sscanf(line.c_str(),
                          "\rqueued: %zu/%zu frames (%lf%%), %lf frames/s",
                          &done, &total, &percent, &rate),
              4)
        << line;
    EXPECT_EQ(done, 3u);
    EXPECT_EQ(total, 100u);
    EXPECT_GE(rate, 2.0 / (afterThird - beforeFirst) - 0.051) << line;
    EXPECT_LE(rate, 2.0 / (beforeThird - afterFirst) + 0.051) << line;
}
