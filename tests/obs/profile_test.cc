#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "obs/profile.hh"

using namespace msim::obs;

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
