/**
 * @file
 * ShardedEngine: conservative time-window parallelization of the
 * discrete-event core.
 *
 * The fleet is partitioned into device groups ("shards"), each with
 * its own EventQueue. The calling (coordinator) thread drives some
 * shards itself and worker threads drive the rest. Device stacks only
 * interact with the rest of the system through the serve layer's
 * decisions (admission, migration, the global virtual clock) and the
 * fault plan — all of which run on a separate *control* queue — so a
 * shard can run freely up to the next cross-shard interaction horizon
 * without ever observing another shard mid-flight. The engine
 * advances simulated time on a fixed window grid:
 *
 *   1. Parallel phase: every shard queue runs to the window boundary
 *      b = min(now + W, t), on the coordinator and the workers alike.
 *      Shards touch only their own devices' state; the only outbound
 *      effects (protection kills, watchdog verdicts) are posted to
 *      per-shard mailboxes.
 *   2. Barrier phase (workers waiting for the next window, coordinator
 *      thread only): the control queue runs to b — arrivals,
 *      admission, global-clock ticks, and fault-plan events execute at
 *      their exact timestamps — then the mailboxes are drained in
 *      canonical (when, shard, seq) order at time b, and any follow-up
 *      control events at b run.
 *
 * Determinism: within a window each shard is an ordinary serial
 * EventQueue, and the mailbox merge order is a pure function of the
 * simulation, so an N-shard run is bit-identical across repeats and
 * across thread counts. With count <= 1 the engine degenerates
 * to the control queue itself — the serial core, untouched — so a
 * 1-shard run is bit-identical to the pre-sharding simulator by
 * construction.
 *
 * The conservative horizon W trades cross-layer reaction latency for
 * parallelism: a task placed by the serve layer at barrier time starts
 * issuing work on its shard at the next window open, up to W late.
 * resolveShardWindow() (harness) derives W from the poll period and
 * the serve clock cadence so this skew stays far below session
 * lifetimes.
 */

#ifndef NEON_SIM_SHARDED_ENGINE_HH
#define NEON_SIM_SHARDED_ENGINE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/shard_mailbox.hh"
#include "sim/types.hh"

namespace neon
{

namespace obs
{
class TraceRecorder;
}

/** Sharding shape (ExperimentConfig::shards). */
struct ShardConfig
{
    /**
     * Device-group shard count. 0 or 1 = the serial core: one queue,
     * no threads, bit-identical to the pre-sharding simulator.
     */
    unsigned count = 0;

    /**
     * Threads driving the shards, the coordinator (the thread calling
     * runUntil) included: shards are dealt round-robin, the
     * coordinator runs shards 0, T, 2T, ... itself, and T - 1 workers
     * are spawned. 1 = every shard on the coordinator, no worker
     * thread. 0 = min(count, hardware_concurrency). Clamped to the
     * shard count. Thread count affects wall-clock speed only, never
     * results.
     */
    unsigned threads = 0;

    /**
     * Conservative synchronization window W in ticks. 0 = let the
     * harness derive it from the poll period and serve clock cadence
     * (resolveShardWindow).
     */
    Tick window = 0;

    bool parallel() const { return count > 1; }
};

/** Conservative-window parallel driver over per-shard event queues. */
class ShardedEngine
{
  public:
    /**
     * @p control is the coordinator queue (arrivals, admission, global
     * clock, fault plan); @p devices is the fleet size being
     * partitioned. With cfg.count <= 1 no queues or threads are
     * created and every accessor falls through to @p control.
     */
    ShardedEngine(const ShardConfig &cfg, EventQueue &control,
                  std::size_t devices);

    /** Stops and joins the worker threads. */
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    /** Shards actually in use (1 in serial mode). */
    std::size_t shardCount() const { return nShards; }

    /**
     * Threads driving the shards, the coordinator included (0 in
     * serial mode); threadCount() - 1 workers are spawned.
     */
    unsigned threadCount() const { return nThreads_; }

    /** The window grid spacing (0 in serial mode). */
    Tick window() const { return window_; }

    bool parallel() const { return nShards > 1; }

    /** Contiguous device-group partition. */
    std::size_t
    shardOfDevice(std::size_t dev) const
    {
        return nShards > 1 ? dev * nShards / nDevices : 0;
    }

    /** The event queue device @p dev lives on. */
    EventQueue &
    queueOfDevice(std::size_t dev)
    {
        return nShards > 1 ? *queues[shardOfDevice(dev)] : control;
    }

    /** Shard @p s's queue (the control queue in serial mode). */
    EventQueue &
    shardQueue(std::size_t s)
    {
        return nShards > 1 ? *queues[s] : control;
    }

    /** Coordinator time (== every shard's time between windows). */
    Tick now() const { return control.now(); }

    /** Advance the whole system to absolute time @p t. */
    void runUntil(Tick t);

    void runFor(Tick d) { runUntil(control.now() + d); }

    /** Events executed across the control queue and every shard. */
    std::uint64_t totalExecuted() const;

    /** Mailbox messages merged so far (stats/tests). */
    std::uint64_t mailboxMessages() const { return nMessages; }

    /** Barrier windows completed (stats/tests). */
    std::uint64_t windowsRun() const { return nWindows; }

    /**
     * Wall seconds spent spawning the worker threads (bench
     * reporting; 0 when no worker is spawned).
     */
    double setupSeconds() const { return setupS; }

    // ------------------------------------------------------------------
    // Shard-phase context (deferred cross-shard effects)
    // ------------------------------------------------------------------

    /**
     * True while the calling thread is executing a shard's events in
     * the parallel phase. Shared-state mutators (fleet placement,
     * serve callbacks) branch on this to defer through the mailbox.
     */
    static bool inShardPhase();

    /**
     * Post @p fn from the current shard context to be applied at the
     * window barrier, stamped with the shard queue's current time.
     * Panics when called outside a shard phase.
     */
    static void postFromShard(EventCallback fn);

    /**
     * Post directly to shard @p s's mailbox at time @p when
     * (coordinator-side injection; tests).
     */
    void postToBarrier(std::size_t s, Tick when, EventCallback fn);

    // ------------------------------------------------------------------
    // Per-shard trace rings
    // ------------------------------------------------------------------

    /**
     * Install @p r as shard @p s's trace ring: whichever thread drives
     * the shard points its thread-local trace sink at it (clocked by
     * the shard's queue) for the duration of each parallel phase, then
     * puts its own sink back. Null detaches.
     */
    void setShardTraceSink(std::size_t s, obs::TraceRecorder *r);

    /** Detach every shard ring (Observer teardown). */
    void clearShardTraceSinks();

  private:
    void workerMain(unsigned w);
    void runShard(std::size_t s, Tick b);
    void runShardsTo(Tick b);
    void applyMailboxes();

    EventQueue &control;
    std::size_t nDevices;
    std::size_t nShards;
    Tick window_ = 0;

    std::vector<std::unique_ptr<EventQueue>> queues;   ///< per shard
    std::vector<ShardMailbox> mailboxes;               ///< per shard
    std::vector<obs::TraceRecorder *> shardSinks;      ///< per shard

    std::uint64_t nMessages = 0;
    std::uint64_t nWindows = 0;
    double setupS = 0.0;

    // Window barrier: the coordinator publishes a target tick and bumps
    // `go` (release), then runs its own shards; workers acquire `go`,
    // run theirs, and bump `done` (release), which the coordinator
    // acquires — that pair of edges is the only synchronization the
    // whole engine needs, and it carries every plain-variable handoff
    // (target, shard queues, mailboxes, trace sinks) across the phase
    // boundary. Each side waits by spinning, then yielding, and sleeps
    // in a futex wait only past a time bound, so a window in which
    // nobody sleeps makes no futex call.
    Tick target = 0;
    unsigned nThreads_ = 0;
    std::atomic<std::uint64_t> go{0};
    std::atomic<unsigned> done{0};
    std::atomic<bool> stopping{false};
    std::vector<std::thread> workers;

    /** Coordinator-side scratch for the canonical mailbox merge. */
    struct PendingMsg
    {
        Tick when;
        std::uint32_t shard;
        std::uint64_t seq;
        EventCallback fn;
    };
    std::vector<PendingMsg> merged;
};

} // namespace neon

#endif // NEON_SIM_SHARDED_ENGINE_HH
