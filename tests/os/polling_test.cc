/**
 * @file
 * Unit tests for the polling-thread service timing.
 */

#include <gtest/gtest.h>

#include <vector>

#include "os/polling_service.hh"

namespace neon
{
namespace
{

TEST(PollingService, PeriodicTicks)
{
    EventQueue eq;
    PollingService poll(eq, msec(1));
    std::vector<Tick> ticks;
    poll.onPoll = [&](Tick t) { ticks.push_back(t); };
    poll.start();
    eq.runUntil(msec(5) + 1);
    EXPECT_EQ(ticks.size(), 5u);
    EXPECT_EQ(ticks.front(), msec(1));
    EXPECT_EQ(ticks.back(), msec(5));
}

TEST(PollingService, StopCeasesTicks)
{
    EventQueue eq;
    PollingService poll(eq, msec(1));
    int count = 0;
    poll.onPoll = [&](Tick) { ++count; };
    poll.start();
    eq.runUntil(msec(3));
    poll.stop();
    eq.runUntil(msec(10));
    EXPECT_EQ(count, 3);
}

TEST(PollingService, SetPeriodTakesEffectOnNextCycle)
{
    EventQueue eq;
    PollingService poll(eq, msec(1));
    std::vector<Tick> ticks;
    poll.onPoll = [&](Tick t) { ticks.push_back(t); };
    poll.start();
    eq.runUntil(msec(1));
    poll.setPeriod(msec(5));
    eq.runUntil(msec(11));
    ASSERT_EQ(ticks.size(), 3u);
    EXPECT_EQ(ticks[1], msec(6));
    EXPECT_EQ(ticks[2], msec(11));
}

TEST(PollingService, DoubleStartIsHarmless)
{
    EventQueue eq;
    PollingService poll(eq, msec(1));
    int count = 0;
    poll.onPoll = [&](Tick) { ++count; };
    poll.start();
    poll.start();
    eq.runUntil(msec(2));
    EXPECT_EQ(count, 2);
}

} // namespace
} // namespace neon
