/**
 * @file
 * Proves the acceptance criterion that steady-state schedule/cancel/
 * step on the event queue performs zero heap allocations.
 *
 * The test binary's counting operator new (support/alloc_counter)
 * sees every allocation; the test warms the queue (pool and heap
 * growth are amortized start-up costs), then replays the identical
 * workload and requires the allocation counter not to move.
 */

#include <gtest/gtest.h>

#include "sim/event_queue.hh"
#include "support/alloc_counter.hh"

namespace neon
{
namespace
{

/**
 * A mixed steady-state workload: periodic self-rescheduling ticks
 * (polling service shape), schedule-then-cancel deadlines (sampling /
 * timeslice shape), plain one-shot events (request completions), and
 * zero-delay work on the same-tick lane: follow-ups a callback makes
 * for its own tick (process resumes), chains of them, and prompts
 * cancelled before they run (a re-prompted poll).
 *
 * The periodic ticks and the deadlines run on declared lanes. Two
 * periodic tickers half a period apart keep their lane from ever
 * draining, as a fleet's pollers do, and the deadlines leave stale
 * entries in theirs for compaction to sweep: lane storage that only
 * rewinds when it drains would grow here for ever.
 */
std::uint64_t
runWorkload(EventQueue &eq, int rounds)
{
    eq.declareLane(10);
    eq.declareLane(100000);

    struct Periodic
    {
        EventQueue &eq;
        std::uint64_t fires = 0;
        int remaining;

        void
        arm()
        {
            eq.scheduleIn(10, [this] {
                ++fires;
                const EventId prompt = eq.scheduleIn(0, [] {});
                eq.scheduleIn(0, [this] { eq.scheduleIn(0, [] {}); });
                eq.cancel(prompt);
                if (--remaining > 0)
                    arm();
            });
        }
    };

    Periodic p{eq, 0, rounds};
    Periodic q{eq, 0, rounds};
    p.arm();
    eq.scheduleIn(5, [&q] { q.arm(); });

    EventId deadline = invalidEventId;
    for (int i = 0; i < rounds; ++i) {
        eq.scheduleIn(5, [] {});
        eq.cancel(eq.scheduleIn(0, [] {}));
        eq.scheduleIn(0, [] {});
        if (deadline != invalidEventId)
            eq.cancel(deadline);
        deadline = eq.scheduleIn(100000, [] {});
        eq.runFor(10);
    }
    eq.cancel(deadline);
    eq.drain();
    return p.fires + q.fires;
}

TEST(EventCoreAllocation, SteadyStateIsAllocationFree)
{
    EventQueue eq;

    // Warm-up: grows the slot pool, heap and lanes to this workload's
    // high-water mark (their capacity persists afterwards). The
    // measured run is four times longer: depth, not length, may set
    // what the queue holds.
    runWorkload(eq, 2000);

    const std::uint64_t before = test::allocationCount();
    const std::uint64_t fires = runWorkload(eq, 8000);
    const std::uint64_t after = test::allocationCount();

    EXPECT_EQ(fires, 2u * 8000);
    EXPECT_EQ(after - before, 0u)
        << "steady-state schedule/cancel/step allocated "
        << (after - before) << " times";
}

} // namespace
} // namespace neon
