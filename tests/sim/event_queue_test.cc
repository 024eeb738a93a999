/**
 * @file
 * Unit tests for the discrete-event core.
 */

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/event_queue.hh"

namespace neon
{
namespace
{

TEST(EventQueue, StartsAtTickZero)
{
    EventQueue eq;
    EXPECT_EQ(eq.now(), 0);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.drain();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueue, TiesRunInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.drain();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue eq;
    bool ran = false;
    EventId id = eq.schedule(10, [&] { ran = true; });
    eq.cancel(id);
    eq.drain();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelIsIdempotentAndIgnoresStaleIds)
{
    EventQueue eq;
    EventId id = eq.schedule(10, [] {});
    eq.cancel(id);
    eq.cancel(id);
    eq.cancel(12345);
    eq.drain();
    SUCCEED();
}

TEST(EventQueue, RunUntilAdvancesClockEvenWithoutEvents)
{
    EventQueue eq;
    eq.runUntil(500);
    EXPECT_EQ(eq.now(), 500);
}

TEST(EventQueue, RunUntilExecutesOnlyDueEvents)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(100, [&] { ++count; });
    eq.schedule(200, [&] { ++count; });
    eq.runUntil(150);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 150);
    eq.runUntil(250);
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, EventsMayRescheduleThemselves)
{
    EventQueue eq;
    int fires = 0;
    std::function<void()> tick = [&] {
        ++fires;
        if (fires < 5)
            eq.scheduleIn(10, tick);
    };
    eq.scheduleIn(10, tick);
    eq.runUntil(1000);
    EXPECT_EQ(fires, 5);
    EXPECT_EQ(eq.now(), 1000);
}

TEST(EventQueue, ScheduleAtCurrentTickRunsAfterCurrentEvent)
{
    // ...and after every event already queued for that tick.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] {
        order.push_back(1);
        eq.scheduleIn(0, [&] { order.push_back(2); });
        order.push_back(3);
    });
    eq.schedule(10, [&] { order.push_back(4); });
    eq.drain();
    EXPECT_EQ(order, (std::vector<int>{1, 3, 4, 2}));
}

TEST(EventQueue, PendingAndExecutedCounts)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    EXPECT_EQ(eq.pending(), 2u);
    eq.drain();
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueue, StaleIdCancelAfterExecutionIsNoOp)
{
    EventQueue eq;
    const EventId a = eq.schedule(10, [] {});
    eq.drain();

    // The slot a occupied is free for reuse; cancelling a's stale id
    // must not touch whatever lives there now.
    bool ran = false;
    const EventId b = eq.schedule(20, [&] { ran = true; });
    EXPECT_NE(a, b);
    eq.cancel(a);
    EXPECT_EQ(eq.pending(), 1u);
    eq.drain();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, IdReuseAfterCancelIsSafe)
{
    EventQueue eq;
    const EventId a = eq.schedule(10, [] {});
    eq.cancel(a);

    // The recycled slot now backs b; a's id aliases the slot index but
    // not its generation.
    bool ran = false;
    const EventId b = eq.schedule(10, [&] { ran = true; });
    EXPECT_NE(a, b);
    eq.cancel(a);
    eq.cancel(a);
    eq.drain();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, SameTickOrderSurvivesInterleavedCancels)
{
    EventQueue eq;
    std::vector<int> order;
    std::vector<EventId> ids;
    for (int i = 0; i < 16; ++i)
        ids.push_back(eq.schedule(5, [&order, i] { order.push_back(i); }));

    // Cancel the odd ones (recycling their slots), then add a second
    // wave at the same tick: survivors of wave 1, then wave 2, in
    // insertion order.
    for (int i = 1; i < 16; i += 2)
        eq.cancel(ids[i]);
    for (int i = 16; i < 24; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });

    eq.drain();

    std::vector<int> expect;
    for (int i = 0; i < 16; i += 2)
        expect.push_back(i);
    for (int i = 16; i < 24; ++i)
        expect.push_back(i);
    EXPECT_EQ(order, expect);
}

TEST(EventQueue, CompactionBoundsHeapUnderHeavyCancel)
{
    EventQueue eq;

    // Polling-service-like churn: every scheduled deadline is
    // cancelled and replaced before it fires. Without compaction the
    // heap would grow by one stale entry per round.
    EventId pending = eq.schedule(1'000'000, [] {});
    for (int round = 0; round < 10'000; ++round) {
        eq.cancel(pending);
        pending = eq.schedule(1'000'000 + round, [] {});
    }

    const auto st = eq.stats();
    EXPECT_EQ(st.live, 1u);
    EXPECT_GE(st.compactions, 1u);
    // Stale entries may linger, but only a bounded fraction.
    EXPECT_LT(st.heapEntries, 200u);
    eq.drain();
    EXPECT_EQ(eq.stats().heapEntries, 0u);
}

TEST(EventQueue, PendingAndEmptyConsistentAfterChurn)
{
    EventQueue eq;
    std::vector<EventId> keep;
    std::uint64_t cancelled = 0;

    for (int i = 0; i < 3000; ++i) {
        const EventId id =
            eq.schedule(100 + i, [] {});
        if (i % 3 == 0) {
            keep.push_back(id);
        } else {
            eq.cancel(id);
            ++cancelled;
        }
    }

    EXPECT_EQ(eq.pending(), keep.size());
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.stats().peakLive, eq.stats().live + 1);

    const std::uint64_t ran = eq.drain();
    EXPECT_EQ(ran, keep.size());
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.executed(), ran);

    // Every cancelled id is stale now; cancelling again is a no-op.
    (void)cancelled;
    for (EventId id : keep)
        eq.cancel(id);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, CancelledSameTickEntriesCountAsQueued)
{
    // Same-tick events skip the heap, but their stale entries still
    // count toward the queue size and the compaction trigger.
    EventQueue eq;
    std::vector<EventId> ids;
    for (int i = 0; i < 10; ++i)
        ids.push_back(eq.scheduleIn(0, [] {}));
    EXPECT_EQ(eq.stats().heapEntries, 10u);
    for (EventId id : ids)
        eq.cancel(id);
    EXPECT_EQ(eq.pending(), 0u);
    EXPECT_EQ(eq.stats().stale, 10u);
    EXPECT_EQ(eq.stats().heapEntries, 10u);
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(eq.stats().heapEntries, 0u);
    EXPECT_EQ(eq.stats().stale, 0u);
}

TEST(EventQueue, RunUntilSkipsStaleTopWithoutOvershooting)
{
    // A cancelled earlier event must not let runUntil execute a live
    // later event beyond the horizon.
    EventQueue eq;
    int count = 0;
    const EventId early = eq.schedule(50, [&] { ++count; });
    eq.schedule(70, [&] { ++count; });
    eq.cancel(early);
    eq.runUntil(60);
    EXPECT_EQ(count, 0);
    EXPECT_EQ(eq.now(), 60);
    eq.runUntil(80);
    EXPECT_EQ(count, 1);
}

TEST(EventQueue, DeclaredLanesKeepTheSingleQueueOrder)
{
    // Declared delays take FIFO lanes; the order is still (when, seq)
    // across lanes and the heap. Entries queued before the declaration
    // stay on the heap and keep their place.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleIn(7, [&] { order.push_back(0); });   // heap
    eq.declareLane(7);
    eq.declareLane(3);
    eq.declareLane(3); // again: a no-op
    eq.declareLane(0); // lane 0 exists already
    eq.scheduleIn(7, [&] { order.push_back(1); });   // lane 7, ties 0
    eq.scheduleIn(3, [&] {                           // lane 3
        order.push_back(2);
        eq.scheduleIn(3, [&] { order.push_back(4); }); // lane 3, at 6
        eq.scheduleIn(4, [&] { order.push_back(5); }); // heap, ties 0
    });
    eq.scheduleIn(5, [&] { order.push_back(3); });   // heap
    EXPECT_EQ(eq.stats().heapEntries, 4u);
    eq.drain();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 4, 0, 1, 5}));
    EXPECT_EQ(eq.now(), 7);
}

TEST(EventQueue, RunningCallbackKeepsItsSlotWhileItSchedules)
{
    // A running callback cancels its own id (a no-op), reschedules
    // itself, and schedules more events than a pool chunk holds, so
    // the pool grows while its closure runs. The closure's captures
    // must be intact after all of that: its slot is not handed out
    // before it returns.
    struct Self
    {
        EventQueue eq;
        EventId id = invalidEventId;
        std::vector<int> gens;
        std::vector<std::uint64_t> tags;
        std::size_t poolGrowths = 0;
        int extras = 0;

        void
        arm(int gen)
        {
            const std::uint64_t tag = 0x9e3779b97f4a7c15ull * (gen + 1);
            id = eq.scheduleIn(1, [this, gen, tag] {
                eq.cancel(id);
                const std::size_t slots = eq.stats().poolSlots;
                if (gen < 3)
                    arm(gen + 1);
                for (int i = 0; i < 600; ++i)
                    eq.scheduleIn(2, [this] { ++extras; });
                if (eq.stats().poolSlots > slots)
                    ++poolGrowths;
                gens.push_back(gen);
                tags.push_back(tag);
            });
        }
    };

    Self self;
    self.arm(0);
    self.eq.drain();
    EXPECT_EQ(self.gens, (std::vector<int>{0, 1, 2, 3}));
    std::vector<std::uint64_t> expect;
    for (int g = 0; g < 4; ++g)
        expect.push_back(0x9e3779b97f4a7c15ull * (g + 1));
    EXPECT_EQ(self.tags, expect);
    EXPECT_EQ(self.extras, 4 * 600);
    EXPECT_GE(self.poolGrowths, 1u);
    EXPECT_TRUE(self.eq.empty());
    EXPECT_EQ(self.eq.stats().stale, 0u);
}

TEST(EventQueueDeathTest, EmptyStdFunctionPanicsAtScheduleTime)
{
    EventQueue eq;
    std::function<void()> empty;
    EXPECT_DEATH(eq.schedule(10, empty), "null event callback");
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.drain();
    ASSERT_EQ(eq.now(), 10);
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

} // namespace
} // namespace neon
