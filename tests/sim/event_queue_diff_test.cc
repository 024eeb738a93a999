/**
 * @file
 * Differential test of the event queue against a reference oracle.
 *
 * Seeded random action sequences drive an EventQueue and an ordered
 * std::set of (when, sequence) side by side: schedules from outside
 * and from inside callbacks (many at delay 0, so they take the
 * same-tick lane, and many at small delays, so several heap entries
 * share a tick with lane entries), cancels of pending, lane,
 * already-run and already-cancelled ids, cancel storms that force
 * compaction, single steps, and runUntil to ticks with and without
 * events. After every action the executed order, now() and pending()
 * must match the oracle exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace neon
{
namespace
{

class DiffHarness
{
  public:
    explicit DiffHarness(std::uint64_t seed) : rng(seed) {}

    /** Schedule one event at absolute @p when on both sides. */
    void
    add(Tick when)
    {
        const std::uint64_t label = ids.size();
        ids.push_back(eq.schedule(when, [this, label] { onRun(label); }));
        whenOf.push_back(when);
        oracle.insert({when, label});
    }

    /** Cancel by label: pending, lane, run or already-cancelled alike. */
    void
    cancel(std::uint64_t label)
    {
        eq.cancel(ids[label]);
        oracle.erase({whenOf[label], label});
    }

    /** Cancel most of what is pending, enough to force compaction. */
    void
    cancelStorm()
    {
        std::vector<std::uint64_t> pending;
        for (const auto &e : oracle)
            pending.push_back(e.second);
        for (std::uint64_t label : pending) {
            if (pick(4) != 0)
                cancel(label);
        }
    }

    /** One random top-level action; false once an invariant broke. */
    bool
    act()
    {
        switch (pick(13)) {
          case 0: case 1: case 2:
            add(eq.now() + smallDelay());
            break;
          case 3:
            add(eq.now()); // lane entry scheduled from outside
            break;
          case 4:
            if (!ids.empty())
                cancel(pick(ids.size()));
            break;
          case 5:
            if (pick(8) == 0)
                cancelStorm();
            break;
          case 6: case 7: case 8: case 9:
            return stepOnce();
          case 10:
            return runTo(eq.now() + pick(6));
          case 11:
            // A tick that holds events, or one strictly between them.
            return runTo(oracle.empty() ? eq.now() + 3
                                        : oracle.begin()->first -
                                            (pick(2) ? 0 : 1));
          case 12:
            // A backlog burst: deep enough for the next storm to
            // force compaction.
            if (pick(16) == 0) {
                for (int i = 0; i < 100; ++i)
                    add(eq.now() + static_cast<Tick>(pick(64)));
            }
            break;
        }
        return consistent();
    }

    bool
    consistent() const
    {
        return ran == expected && eq.now() == now &&
            eq.pending() == oracle.size();
    }

    const std::vector<std::uint64_t> &executed() const { return ran; }
    std::size_t compactions() const { return eq.stats().compactions; }

  private:
    std::uint64_t
    pick(std::uint64_t n)
    {
        return std::uniform_int_distribution<std::uint64_t>(0, n - 1)(rng);
    }

    /** Delays cluster on a few ticks so ties between tiers are common. */
    Tick
    smallDelay()
    {
        return pick(3) == 0 ? 0 : static_cast<Tick>(pick(8));
    }

    void
    onRun(std::uint64_t label)
    {
        ran.push_back(label);
        if (oracle.empty()) {
            expected.push_back(~std::uint64_t(0));
        } else {
            expected.push_back(oracle.begin()->second);
            now = oracle.begin()->first;
            oracle.erase(oracle.begin());
        }

        // Work done from inside the callback, mirrored in the oracle.
        if (pick(2) == 0)
            add(eq.now()); // same-tick follow-up: the lane
        if (pick(4) == 0)
            add(eq.now());
        if (pick(3) == 0)
            add(eq.now() + smallDelay());
        if (pick(5) == 0)
            cancel(label); // its own, now stale, id
        if (pick(4) == 0 && !ids.empty())
            cancel(pick(ids.size()));
        if (pick(3) == 0 && ids.size() > 1)
            cancel(ids.size() - 1 - pick(2)); // likely a lane entry
    }

    bool
    stepOnce()
    {
        const bool any = !oracle.empty();
        if (eq.step() != any)
            return false;
        return consistent();
    }

    bool
    runTo(Tick t)
    {
        eq.runUntil(t);
        if (t > now)
            now = t;
        if (!oracle.empty() && oracle.begin()->first <= t)
            return false; // stopped short of a due event
        return consistent();
    }

    EventQueue eq;
    std::mt19937_64 rng;
    Tick now = 0;
    std::set<std::pair<Tick, std::uint64_t>> oracle; ///< (when, label)
    std::vector<EventId> ids;   ///< by label (labels follow seq order)
    std::vector<Tick> whenOf;   ///< by label
    std::vector<std::uint64_t> ran;      ///< labels as the queue ran them
    std::vector<std::uint64_t> expected; ///< labels in oracle order
};

TEST(EventQueueDifferential, MatchesOrderedSetOracle)
{
    std::size_t executed = 0;
    std::size_t compactions = 0;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        DiffHarness h(seed);
        for (int i = 0; i < 6000; ++i) {
            ASSERT_TRUE(h.act())
                << "seed " << seed << " diverged at action " << i;
        }
        executed += h.executed().size();
        compactions += h.compactions();
    }
    // The mix really exercised execution and the stale-entry sweep.
    EXPECT_GT(executed, 50000u);
    EXPECT_GT(compactions, 0u);
}

} // namespace
} // namespace neon
