/**
 * @file
 * Differential test of the event queue against a reference oracle.
 *
 * Seeded random action sequences drive an EventQueue and an ordered
 * std::set of (when, sequence) side by side: schedules from outside
 * and from inside callbacks (many at delay 0, so they take the
 * same-tick lane, many at declared lane delays, and many at other
 * small delays, so heap entries share ticks with lane entries),
 * cancels of pending, lane-front, lane-middle, already-run and
 * already-cancelled ids, cancel storms that force compaction, single
 * steps, and runUntil to ticks with and without events, among them
 * ticks where a lane front ties a heap entry. One lane is declared
 * mid-run, while entries with its delay already sit on the heap.
 * After every action the executed order, now(), pending() and the
 * queued-entry count must match the oracle exactly.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
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
    explicit DiffHarness(std::uint64_t seed) : rng(seed)
    {
        declare(3);
        declare(5);
    }

    /** Schedule one event at absolute @p when on both sides. */
    void
    add(Tick when)
    {
        const std::uint64_t label = ids.size();
        ids.push_back(eq.schedule(when, [this, label] { onRun(label); }));
        whenOf.push_back(when);
        delayOf.push_back(when - eq.now());
        pendingOf.push_back(true);
        oracle.insert({when, label});
        for (std::size_t k = 0; k < declared.size(); ++k) {
            if (declared[k] == when - eq.now())
                laneLabels[k].push_back(label);
        }
    }

    /** Cancel by label: pending, lane, run or already-cancelled alike. */
    void
    cancel(std::uint64_t label)
    {
        eq.cancel(ids[label]);
        oracle.erase({whenOf[label], label});
        pendingOf[label] = false;
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
        // The third lane arrives late: entries with its delay are
        // already on the heap and stay there, and the first lane
        // entry ties them.
        if (++actions == 1500) {
            add(eq.now() + 7);
            add(eq.now() + 7);
            declare(7);
            add(eq.now() + 7);
        }

        switch (pick(17)) {
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
          case 13:
            add(eq.now() + declared[pick(declared.size())]);
            break;
          case 14:
            cancelLaneFront();
            break;
          case 15:
            cancelLaneMiddle();
            break;
          case 16:
            return runToLaneTie();
        }
        return consistent();
    }

    bool
    consistent() const
    {
        const EventQueue::QueueStats st = eq.stats();
        return ran == expected && eq.now() == now &&
            eq.pending() == oracle.size() &&
            st.heapEntries == st.live + st.stale;
    }

    const std::vector<std::uint64_t> &executed() const { return ran; }
    std::size_t compactions() const { return eq.stats().compactions; }

    /** Coverage of the lane-specific actions. */
    struct Coverage
    {
        std::size_t heapBeforeDeclare = 0; ///< pending at a late lane's delay
        std::size_t frontCancels = 0;
        std::size_t middleCancels = 0;
        std::size_t tieRuns = 0;
    };
    const Coverage &coverage() const { return cov; }

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
    declare(Tick d)
    {
        for (const auto &e : oracle) {
            if (delayOf[e.second] == d)
                ++cov.heapBeforeDeclare;
        }
        eq.declareLane(d);
        declared.push_back(d);
        laneLabels.emplace_back();
    }

    /** The oldest pending label in lane @p k, if any. */
    bool
    laneFront(std::size_t k, std::uint64_t &label)
    {
        std::deque<std::uint64_t> &q = laneLabels[k];
        while (!q.empty() && !pendingOf[q.front()])
            q.pop_front();
        if (q.empty())
            return false;
        label = q.front();
        return true;
    }

    void
    cancelLaneFront()
    {
        std::uint64_t label;
        if (laneFront(pick(declared.size()), label)) {
            cancel(label);
            ++cov.frontCancels;
        }
    }

    void
    cancelLaneMiddle()
    {
        const std::deque<std::uint64_t> &q =
            laneLabels[pick(declared.size())];
        if (q.size() < 3)
            return;
        const std::uint64_t label = q[1 + pick(q.size() - 2)];
        if (pendingOf[label])
            ++cov.middleCancels;
        cancel(label);
    }

    /**
     * Put an event from outside on a lane front's tick (a heap entry
     * unless its delay is declared) and run to that tick or just
     * short of it.
     */
    bool
    runToLaneTie()
    {
        std::uint64_t label;
        if (!laneFront(pick(declared.size()), label))
            return consistent();
        const Tick t = whenOf[label];
        if (t - eq.now() != 0)
            add(t);
        ++cov.tieRuns;
        return runTo(t - static_cast<Tick>(pick(2)));
    }

    void
    onRun(std::uint64_t label)
    {
        ran.push_back(label);
        pendingOf[label] = false;
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
        if (pick(3) == 0) {
            add(eq.now() + (pick(2) ? smallDelay()
                                    : declared[pick(declared.size())]));
        }
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
    int actions = 0;
    std::set<std::pair<Tick, std::uint64_t>> oracle; ///< (when, label)
    std::vector<EventId> ids;   ///< by label (labels follow seq order)
    std::vector<Tick> whenOf;   ///< by label
    std::vector<Tick> delayOf;  ///< by label: when - now at scheduling
    std::vector<bool> pendingOf; ///< by label: neither run nor cancelled
    std::vector<Tick> declared; ///< declared lane delays, in order
    /** Per declared delay: the labels its lane took, in order. */
    std::vector<std::deque<std::uint64_t>> laneLabels;
    std::vector<std::uint64_t> ran;      ///< labels as the queue ran them
    std::vector<std::uint64_t> expected; ///< labels in oracle order
    Coverage cov;
};

TEST(EventQueueDifferential, MatchesOrderedSetOracle)
{
    std::size_t executed = 0;
    std::size_t compactions = 0;
    DiffHarness::Coverage cov;
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        DiffHarness h(seed);
        for (int i = 0; i < 6000; ++i) {
            ASSERT_TRUE(h.act())
                << "seed " << seed << " diverged at action " << i;
        }
        executed += h.executed().size();
        compactions += h.compactions();
        cov.heapBeforeDeclare += h.coverage().heapBeforeDeclare;
        cov.frontCancels += h.coverage().frontCancels;
        cov.middleCancels += h.coverage().middleCancels;
        cov.tieRuns += h.coverage().tieRuns;
    }
    // The mix really exercised execution, the stale-entry sweep and
    // every lane-specific action.
    EXPECT_GT(executed, 50000u);
    EXPECT_GT(compactions, 0u);
    EXPECT_GE(cov.heapBeforeDeclare, 2u * 24);
    EXPECT_GT(cov.frontCancels, 1000u);
    EXPECT_GT(cov.middleCancels, 1000u);
    EXPECT_GT(cov.tieRuns, 1000u);
}

} // namespace
} // namespace neon
