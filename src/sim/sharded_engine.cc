#include "sim/sharded_engine.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace neon
{

namespace
{

// Barrier wait bounds. A waiter spins on `pause` for at most
// pauseSpin, then yields its core (so an oversubscribed host still
// runs the thread it waits for) until yieldSpin has passed, and only
// then sleeps in the futex wait. A barrier phase or the spread of shard
// finish times rarely outlasts the yield phase, so windows seldom pay
// the host's wake-up latency. A longer `pause` phase starves other
// processes on a busy host; without the yield phase most waits sleep.
constexpr auto pauseSpin = std::chrono::microseconds(10);
constexpr auto yieldSpin = std::chrono::microseconds(200);

void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

/**
 * Wait until @p cell no longer reads @p old; return what it reads
 * (acquire). The futex wait is the last resort: notify skips the futex
 * call when nobody sleeps, and wait() re-checks the value before
 * sleeping, so no wake-up is lost.
 */
template <typename T>
T
awaitChange(const std::atomic<T> &cell, T old)
{
    using Clock = std::chrono::steady_clock;
    T v = cell.load(std::memory_order_acquire);
    if (v != old)
        return v;
    const Clock::time_point t0 = Clock::now();
    do {
        for (int i = 0; i < 16; ++i) {
            cpuRelax();
            v = cell.load(std::memory_order_acquire);
            if (v != old)
                return v;
        }
    } while (Clock::now() - t0 < pauseSpin);
    do {
        std::this_thread::yield();
        v = cell.load(std::memory_order_acquire);
        if (v != old)
            return v;
    } while (Clock::now() - t0 < yieldSpin);
    while (v == old) {
        cell.wait(old, std::memory_order_acquire);
        v = cell.load(std::memory_order_acquire);
    }
    return v;
}

/**
 * The shard a thread is currently executing (parallel phase only).
 * Thread-local so FleetManager/Watchdog code deep in a shard's event
 * callbacks can detect the phase and reach its mailbox without any
 * plumbing through the device stack.
 */
struct ShardContext
{
    ShardMailbox *mailbox = nullptr;
    const EventQueue *queue = nullptr;
};

thread_local ShardContext *tlsShard = nullptr;

} // namespace

ShardedEngine::ShardedEngine(const ShardConfig &cfg, EventQueue &control,
                             std::size_t devices)
    : control(control), nDevices(devices ? devices : 1),
      nShards(cfg.count > 1 ? cfg.count : 1)
{
    if (nShards > nDevices)
        nShards = nDevices; // never more shards than devices
    if (nShards <= 1) {
        nShards = 1;
        return; // serial passthrough: the control queue is the core
    }

    window_ = cfg.window > 0 ? cfg.window : msec(1);

    queues.reserve(nShards);
    for (std::size_t s = 0; s < nShards; ++s)
        queues.push_back(std::make_unique<EventQueue>());
    mailboxes.resize(nShards);
    shardSinks.assign(nShards, nullptr);

    unsigned threads = cfg.threads > 0
        ? cfg.threads
        : std::max(1u, std::thread::hardware_concurrency());
    threads = std::min<unsigned>(threads, static_cast<unsigned>(nShards));
    nThreads_ = threads; // fixed before spawning: workers read it
    if (threads == 1)
        return; // the coordinator drives every shard itself

    // Thread 0 is the coordinator; workers are threads 1 .. T-1.
    const auto t0 = std::chrono::steady_clock::now();
    workers.reserve(threads - 1);
    for (unsigned w = 1; w < threads; ++w)
        workers.emplace_back([this, w] { workerMain(w); });
    setupS = std::chrono::duration<double>(
                 std::chrono::steady_clock::now() - t0)
                 .count();
}

ShardedEngine::~ShardedEngine()
{
    if (workers.empty())
        return;
    stopping.store(true, std::memory_order_relaxed);
    go.fetch_add(1, std::memory_order_release);
    go.notify_all();
    for (std::thread &t : workers)
        t.join();
}

void
ShardedEngine::workerMain(unsigned w)
{
    const unsigned nThreads = nThreads_;
    std::uint64_t seen = 0;
    for (;;) {
        seen = awaitChange(go, seen);
        if (stopping.load(std::memory_order_relaxed))
            return;
        const Tick b = target;
        for (std::size_t s = w; s < nShards; s += nThreads)
            runShard(s, b);
        done.fetch_add(1, std::memory_order_release);
        done.notify_one();
    }
}

void
ShardedEngine::runShard(std::size_t s, Tick b)
{
    // The coordinator drives shards between its own control work, so
    // the thread's shard context and trace sink are put back, not
    // cleared, when the shard's phase ends.
    ShardContext ctx{&mailboxes[s], queues[s].get()};
    ShardContext *const outer = std::exchange(tlsShard, &ctx);
    const obs::ThreadTraceSink outerSink =
        obs::installThreadTraceSink({shardSinks[s], queues[s].get()});
    queues[s]->runUntil(b);
    obs::installThreadTraceSink(outerSink);
    tlsShard = outer;
}

void
ShardedEngine::runShardsTo(Tick b)
{
    target = b;
    done.store(0, std::memory_order_relaxed);
    go.fetch_add(1, std::memory_order_release);
    go.notify_all();

    const unsigned nThreads = nThreads_;
    for (std::size_t s = 0; s < nShards; s += nThreads)
        runShard(s, b);
    for (unsigned d = 0; d != nThreads - 1;)
        d = awaitChange(done, d);
}

void
ShardedEngine::applyMailboxes()
{
    merged.clear();
    for (std::size_t s = 0; s < nShards; ++s) {
        if (mailboxes[s].empty())
            continue;
        for (ShardMailbox::Message &m : mailboxes[s].take()) {
            merged.push_back({m.when, static_cast<std::uint32_t>(s),
                              m.seq, std::move(m.fn)});
        }
    }
    if (merged.empty())
        return;
    // Canonical cross-shard order: simulation time, then shard, then
    // posting order — a pure function of the simulated run, so the
    // apply order never depends on which OS thread ran which shard.
    std::sort(merged.begin(), merged.end(),
              [](const PendingMsg &a, const PendingMsg &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.shard != b.shard)
                      return a.shard < b.shard;
                  return a.seq < b.seq;
              });
    nMessages += merged.size();
    for (PendingMsg &m : merged)
        m.fn();
    merged.clear();
}

void
ShardedEngine::runUntil(Tick t)
{
    if (nShards <= 1) {
        control.runUntil(t);
        return;
    }
    if (t < control.now())
        panic("sharded run target ", t, " is in the past");

    while (control.now() < t) {
        const Tick b = std::min(control.now() + window_, t);

        // Parallel phase: every shard to the boundary.
        runShardsTo(b);

        // Barrier phase: control events run at their own timestamps,
        // then deferred shard effects land at b, then any follow-ups
        // they scheduled at b run before the next window opens.
        control.runUntil(b);
        applyMailboxes();
        control.runUntil(b);
        ++nWindows;
    }
}

std::uint64_t
ShardedEngine::totalExecuted() const
{
    std::uint64_t n = control.executed();
    for (const auto &q : queues)
        n += q->executed();
    return n;
}

bool
ShardedEngine::inShardPhase()
{
    return tlsShard != nullptr;
}

void
ShardedEngine::postFromShard(EventCallback fn)
{
    ShardContext *ctx = tlsShard;
    if (!ctx)
        panic("postFromShard called outside a shard phase");
    ctx->mailbox->post(ctx->queue->now(), std::move(fn));
}

void
ShardedEngine::postToBarrier(std::size_t s, Tick when, EventCallback fn)
{
    if (nShards <= 1) {
        // Serial core: no barrier exists; apply in place for parity.
        fn();
        return;
    }
    if (s >= nShards)
        panic("postToBarrier: shard ", s, " of ", nShards);
    mailboxes[s].post(when, std::move(fn));
}

void
ShardedEngine::setShardTraceSink(std::size_t s, obs::TraceRecorder *r)
{
    if (nShards <= 1)
        return;
    if (s >= nShards)
        panic("setShardTraceSink: shard ", s, " of ", nShards);
    shardSinks[s] = r;
}

void
ShardedEngine::clearShardTraceSinks()
{
    for (auto &sink : shardSinks)
        sink = nullptr;
}

} // namespace neon
