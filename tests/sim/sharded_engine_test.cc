/**
 * @file
 * ShardedEngine unit tests: serial passthrough, device partitioning,
 * window-grid advancement, canonical mailbox ordering, shard-phase
 * context, and bit-level determinism across repeats and worker-thread
 * counts.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/sharded_engine.hh"

namespace neon
{
namespace
{

TEST(ShardedEngineCore, SerialPassthroughUsesControlQueue)
{
    // count <= 1 must degenerate to the bare control queue: no shard
    // queues, no threads, no windows — structurally the serial core.
    for (unsigned count : {0u, 1u}) {
        EventQueue eq;
        ShardedEngine engine({count, 0, 0}, eq, 8);

        EXPECT_FALSE(engine.parallel());
        EXPECT_EQ(engine.shardCount(), 1u);
        EXPECT_EQ(engine.threadCount(), 0u);
        EXPECT_EQ(engine.window(), 0);
        for (std::size_t d = 0; d < 8; ++d) {
            EXPECT_EQ(engine.shardOfDevice(d), 0u);
            EXPECT_EQ(&engine.queueOfDevice(d), &eq);
        }
        EXPECT_EQ(&engine.shardQueue(0), &eq);

        int fired = 0;
        eq.schedule(usec(10), [&] { ++fired; });
        engine.runUntil(msec(1));
        EXPECT_EQ(fired, 1);
        EXPECT_EQ(engine.now(), msec(1));
        EXPECT_EQ(eq.now(), msec(1));
        EXPECT_EQ(engine.totalExecuted(), eq.executed());
        EXPECT_EQ(engine.windowsRun(), 0u);
        EXPECT_EQ(engine.mailboxMessages(), 0u);
    }
}

TEST(ShardedEngineCore, SerialPostToBarrierAppliesInline)
{
    EventQueue eq;
    ShardedEngine engine({1, 0, 0}, eq, 4);
    int fired = 0;
    engine.postToBarrier(0, usec(5), [&] { ++fired; });
    EXPECT_EQ(fired, 1); // applied immediately in serial mode
}

TEST(ShardedEngineCore, PartitionIsContiguousAndClamped)
{
    EventQueue eq;

    // More shards than devices clamps to one shard per device.
    ShardedEngine clamped({8, 1, msec(1)}, eq, 3);
    EXPECT_EQ(clamped.shardCount(), 3u);

    // Contiguous partition: nondecreasing, covers every shard, and
    // each device's queue is its shard's queue.
    ShardedEngine engine({4, 1, msec(1)}, eq, 10);
    ASSERT_EQ(engine.shardCount(), 4u);
    std::vector<std::size_t> perShard(4, 0);
    std::size_t prev = 0;
    for (std::size_t d = 0; d < 10; ++d) {
        const std::size_t s = engine.shardOfDevice(d);
        ASSERT_LT(s, 4u);
        EXPECT_GE(s, prev);
        prev = s;
        ++perShard[s];
        EXPECT_EQ(&engine.queueOfDevice(d), &engine.shardQueue(s));
        EXPECT_NE(&engine.queueOfDevice(d), &eq);
    }
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_GE(perShard[s], 1u) << "shard " << s << " owns no device";
}

TEST(ShardedEngineCore, WindowGridAdvancesAllQueues)
{
    EventQueue eq;
    ShardedEngine engine({2, 1, msec(1)}, eq, 2);
    ASSERT_TRUE(engine.parallel());
    EXPECT_EQ(engine.window(), msec(1));

    // Events on both shards and the control queue all execute, and
    // every clock lands exactly on the run target.
    int shardFired = 0;
    int controlFired = 0;
    for (std::size_t d = 0; d < 2; ++d) {
        engine.queueOfDevice(d).schedule(usec(100) + Tick(d),
                                         [&] { ++shardFired; });
        engine.queueOfDevice(d).schedule(msec(3) + Tick(d),
                                         [&] { ++shardFired; });
    }
    eq.schedule(usec(500), [&] { ++controlFired; });

    engine.runUntil(msec(5));
    EXPECT_EQ(shardFired, 4);
    EXPECT_EQ(controlFired, 1);
    EXPECT_EQ(engine.now(), msec(5));
    EXPECT_EQ(engine.shardQueue(0).now(), msec(5));
    EXPECT_EQ(engine.shardQueue(1).now(), msec(5));
    EXPECT_EQ(engine.windowsRun(), 5u);
    EXPECT_EQ(engine.totalExecuted(), eq.executed() +
                                          engine.shardQueue(0).executed() +
                                          engine.shardQueue(1).executed());

    // A partial window still drives everything to the exact target.
    engine.runFor(usec(250));
    EXPECT_EQ(engine.now(), msec(5) + usec(250));
    EXPECT_EQ(engine.shardQueue(1).now(), msec(5) + usec(250));
}

TEST(ShardedEngineCore, MailboxDrainsInCanonicalOrder)
{
    EventQueue eq;
    ShardedEngine engine({3, 1, msec(1)}, eq, 3);

    // Post out of order across shards and timestamps; the barrier must
    // apply them sorted by (when, shard, seq), at control time.
    std::vector<std::string> log;
    auto tag = [&](std::string s) {
        return [&log, s = std::move(s)] { log.push_back(s); };
    };
    engine.postToBarrier(2, usec(700), tag("t700.s2"));
    engine.postToBarrier(0, usec(900), tag("t900.s0.a"));
    engine.postToBarrier(1, usec(700), tag("t700.s1"));
    engine.postToBarrier(0, usec(900), tag("t900.s0.b"));
    engine.postToBarrier(0, usec(100), tag("t100.s0"));

    engine.runUntil(msec(1));
    const std::vector<std::string> want = {
        "t100.s0", "t700.s1", "t700.s2", "t900.s0.a", "t900.s0.b"};
    EXPECT_EQ(log, want);
    EXPECT_EQ(engine.mailboxMessages(), 5u);
}

TEST(ShardedEngineCore, ShardPhaseContextAndDeferredEffects)
{
    EventQueue eq;
    ShardedEngine engine({2, 2, msec(1)}, eq, 2);

    // Not a shard phase on the coordinator thread.
    EXPECT_FALSE(ShardedEngine::inShardPhase());

    // A shard event sees inShardPhase() and can defer a cross-shard
    // effect; the effect runs at the barrier, on the coordinator, at
    // the window-boundary control time.
    Tick appliedAt = -1;
    bool sawPhase = false;
    engine.queueOfDevice(1).schedule(usec(300), [&] {
        sawPhase = ShardedEngine::inShardPhase();
        ShardedEngine::postFromShard(
            [&] { appliedAt = eq.now(); });
    });

    engine.runUntil(msec(2));
    EXPECT_TRUE(sawPhase);
    EXPECT_EQ(appliedAt, msec(1)); // barrier closing the event's window
    EXPECT_EQ(engine.mailboxMessages(), 1u);
    EXPECT_FALSE(ShardedEngine::inShardPhase());
}

TEST(ShardedEngineCore, PostFromShardPanicsOutsideShardPhase)
{
    EXPECT_DEATH(ShardedEngine::postFromShard([] {}),
                 "outside a shard phase");
}

/**
 * Rebuildable ping-pong scenario: each shard's device event chain
 * defers a message through the mailbox; the barrier handler reschedules
 * the next hop into another shard's queue. Returns the full applied-
 * message log — any thread-scheduling nondeterminism would reorder it.
 * A nonzero @p idle runs one window per runUntil call, with the host
 * idle that long before each, and makes every hop idle that long too.
 */
std::vector<std::string>
runPingPong(unsigned shards, unsigned threads,
            std::chrono::microseconds idle = std::chrono::microseconds(0))
{
    EventQueue eq;
    ShardedEngine engine({shards, threads, usec(500)}, eq, 8);
    std::vector<std::string> log;

    struct Hop
    {
        ShardedEngine &engine;
        EventQueue &eq;
        std::vector<std::string> &log;
        int left = 0;
        std::chrono::microseconds idle;

        void
        arm(std::size_t dev, Tick delay)
        {
            engine.queueOfDevice(dev).scheduleIn(delay, [this, dev] {
                std::this_thread::sleep_for(idle);
                ShardedEngine::postFromShard([this, dev] {
                    log.push_back("dev" + std::to_string(dev) + "@" +
                                  std::to_string(eq.now()));
                    if (--left > 0)
                        arm((dev + 3) % 8, usec(130) + Tick(dev));
                });
            });
        }
    };

    Hop hop{engine, eq, log, 40, idle};
    hop.arm(0, usec(90));
    Hop hop2{engine, eq, log, 40, idle};
    hop2.arm(5, usec(110));

    if (idle.count() == 0) {
        engine.runUntil(msec(30));
    } else {
        while (engine.now() < msec(30)) {
            std::this_thread::sleep_for(idle);
            engine.runFor(engine.window());
        }
    }
    log.push_back("executed=" + std::to_string(engine.totalExecuted()));
    log.push_back("msgs=" + std::to_string(engine.mailboxMessages()));
    return log;
}

TEST(ShardedEngineCore, DeterministicAcrossRepeatsAndThreadCounts)
{
    const std::vector<std::string> base = runPingPong(4, 1);
    ASSERT_GT(base.size(), 10u);
    EXPECT_EQ(runPingPong(4, 1), base); // repeat, same threads
    EXPECT_EQ(runPingPong(4, 2), base); // more workers than cores
    EXPECT_EQ(runPingPong(4, 4), base);
}

TEST(ShardedEngineCore, NoLostWakeUpAfterIdleGaps)
{
    // Idle gaps longer than the barrier's 200-us spin bound put every
    // worker to sleep in its futex wait before each window opens, and
    // the coordinator to sleep in its own while a worker's shard naps.
    // Each wake-up must still arrive (a lost one hangs this test until
    // ctest's timeout), and the log must match the one-thread run.
    EXPECT_EQ(runPingPong(4, 4, std::chrono::microseconds(500)),
              runPingPong(4, 1));
}

TEST(ShardedEngineCore, ThreadDefaultsAndSetupAccounting)
{
    EventQueue eq;
    ShardedEngine engine({4, 0, msec(1)}, eq, 8);
    // threads=0 defaults to min(count, hardware_concurrency >= 1).
    EXPECT_GE(engine.threadCount(), 1u);
    EXPECT_LE(engine.threadCount(), 4u);
    // Spawn cost is measured so benches can exclude it.
    EXPECT_GE(engine.setupSeconds(), 0.0);

    // The coordinator counts as a thread: threads=1 runs every shard
    // on the calling thread and spawns no worker at all.
    ShardedEngine solo({4, 1, msec(1)}, eq, 8);
    EXPECT_EQ(solo.threadCount(), 1u);
    EXPECT_EQ(solo.setupSeconds(), 0.0);

    // More threads than shards clamps to one thread per shard.
    ShardedEngine wide({4, 16, msec(1)}, eq, 8);
    EXPECT_EQ(wide.threadCount(), 4u);
    EXPECT_GT(wide.setupSeconds(), 0.0);
}

} // namespace
} // namespace neon
