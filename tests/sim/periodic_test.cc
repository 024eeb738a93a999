/**
 * @file
 * Unit tests for the recurring virtual-time timer: tick times, stop,
 * repeated start, a callback that stops its own timer, non-positive
 * periods, cancellation at destruction, and the ordering rule (the
 * next tick is armed after the callback returns).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/periodic.hh"

namespace neon
{
namespace
{

TEST(Periodic, FirstTickComesOnePeriodAfterStart)
{
    EventQueue eq;
    eq.runUntil(msec(2));
    std::vector<Tick> ticks;
    Periodic p(eq, msec(1), [&] { ticks.push_back(eq.now()); });
    p.start();
    eq.runUntil(msec(7) + 1);
    EXPECT_EQ(ticks, (std::vector<Tick>{msec(3), msec(4), msec(5),
                                        msec(6), msec(7)}));
}

TEST(Periodic, StopEndsTheTicks)
{
    EventQueue eq;
    int count = 0;
    Periodic p(eq, msec(1), [&] { ++count; });
    p.start();
    eq.runUntil(msec(3));
    p.stop();
    p.stop(); // idempotent
    eq.runUntil(msec(10));
    EXPECT_EQ(count, 3);
    EXPECT_TRUE(eq.empty());
}

TEST(Periodic, SecondStartDoesNothing)
{
    EventQueue eq;
    int count = 0;
    Periodic p(eq, msec(1), [&] { ++count; });
    p.start();
    eq.runUntil(usec(500));
    p.start();
    eq.runUntil(msec(2));
    EXPECT_EQ(count, 2);
    EXPECT_EQ(eq.pending(), 1u);
}

TEST(Periodic, CallbackMayStopItsOwnTimer)
{
    EventQueue eq;
    std::vector<Tick> ticks;
    std::unique_ptr<Periodic> p;
    p = std::make_unique<Periodic>(eq, msec(1), [&] {
        ticks.push_back(eq.now());
        if (ticks.size() == 3)
            p->stop();
    });
    p->start();
    eq.runUntil(msec(10));
    EXPECT_EQ(ticks, (std::vector<Tick>{msec(1), msec(2), msec(3)}));
    EXPECT_TRUE(eq.empty());
}

TEST(Periodic, NonPositivePeriodNeverArms)
{
    EventQueue eq;
    int count = 0;
    Periodic zero(eq, 0, [&] { ++count; });
    Periodic negative(eq, -msec(1), [&] { ++count; });
    zero.start();
    negative.start();
    EXPECT_TRUE(eq.empty());
    eq.runUntil(msec(10));
    EXPECT_EQ(count, 0);
}

TEST(Periodic, DestructionCancelsThePendingTick)
{
    EventQueue eq;
    int count = 0;
    {
        Periodic p(eq, msec(1), [&] { ++count; });
        p.start();
        eq.runUntil(msec(2));
        EXPECT_EQ(eq.pending(), 1u);
    }
    EXPECT_TRUE(eq.empty());
    eq.runUntil(msec(10));
    EXPECT_EQ(count, 2);
}

TEST(Periodic, EventScheduledByTheCallbackForTheNextTickRunsFirst)
{
    // The callback schedules an event for the instant of the next
    // tick; the timer re-arms only after the callback returns, so that
    // event holds the lower sequence number and runs first.
    EventQueue eq;
    std::vector<std::string> order;
    Periodic p(eq, msec(1), [&] {
        order.push_back("tick");
        eq.scheduleIn(msec(1), [&] { order.push_back("follow-up"); });
    });
    p.start();
    eq.runUntil(msec(3));
    EXPECT_EQ(order, (std::vector<std::string>{"tick", "follow-up", "tick",
                                               "follow-up", "tick"}));
}

} // namespace
} // namespace neon
