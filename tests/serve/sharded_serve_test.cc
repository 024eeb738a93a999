/**
 * @file
 * End-to-end determinism of sharded serving runs: a 1-shard run is
 * bit-identical to the legacy serial core, an N-shard run is
 * bit-identical across repeats and worker-thread counts, each trace
 * record lands in the ring of the queue that produced it, and the
 * session ledger reconciles exactly against the device meters under
 * sharded migration and scripted device death.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "harness/serve_runner.hh"
#include "obs/observe.hh"
#include "obs/trace.hh"

namespace neon
{
namespace
{

/** Open-system base config: skewed 8-device fleet, clock-steered. */
ExperimentConfig
shardedServeConfig()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 8;
    cfg.fleet.speedFactors = {1.4, 1.0, 0.6, 1.0, 1.2, 0.8, 1.0, 1.0};
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(15);
    cfg.serve.migrationMinTasks = 1;
    cfg.measure = sec(1);
    return cfg;
}

std::vector<ServeWorkloadSpec>
shardedServeSpecs()
{
    WorkloadSpec heavy = WorkloadSpec::throttle(usec(400));
    heavy.label = "heavy";
    WorkloadSpec light = WorkloadSpec::throttle(usec(150), 0.3);
    light.label = "light";
    return {
        {heavy, ArrivalSpec::poisson(30.0, msec(600)),
         LifetimeSpec::fixed(msec(120))},
        {light, ArrivalSpec::poisson(50.0, msec(600)),
         LifetimeSpec::exponential(msec(80))},
    };
}

/**
 * Full bit-level fingerprint of a run: one line per session with every
 * ledger field plus whole-run counters and the event totals. Any
 * divergence — ordering, placement, usage, event counts — shows up as
 * a line diff.
 */
std::vector<std::string>
runFingerprint(const ExperimentConfig &cfg)
{
    ServeWorld world(cfg, shardedServeSpecs());
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    std::vector<std::string> fp;
    for (const auto &s : r.sessions) {
        std::string devs;
        for (std::size_t d : s.devices)
            devs += std::to_string(d) + ",";
        fp.push_back(s.label + " arr=" + std::to_string(s.arrived) +
                     " adm=" + std::to_string(s.admitted) +
                     " dep=" + std::to_string(s.departed) +
                     " killed=" + std::to_string(s.killed) +
                     " evict=" + std::to_string(s.evictions) +
                     " mig=" + std::to_string(s.migrations) +
                     " busy=" + std::to_string(s.busy) +
                     " reqs=" + std::to_string(s.requests) +
                     " devs=" + devs);
    }
    fp.push_back("arrivals=" + std::to_string(r.arrivals) +
                 " departures=" + std::to_string(r.departures) +
                 " migrations=" + std::to_string(r.migrations) +
                 " kills=" + std::to_string(r.kills) +
                 " evictions=" + std::to_string(r.evictions));
    fp.push_back("fleetBusy=" + std::to_string(world.fleet.totalBusy()));
    fp.push_back("events=" + std::to_string(world.eventsExecuted()));
    return fp;
}

TEST(ShardedServe, OneShardBitIdenticalToSerial)
{
    // shards.count = 0 (the legacy serial core) and count = 1 must
    // take the identical code path: one queue, no threads, no windows.
    ExperimentConfig serial = shardedServeConfig();
    const std::vector<std::string> base = runFingerprint(serial);
    ASSERT_GT(base.size(), 10u) << "scenario too small to mean anything";

    ExperimentConfig one = shardedServeConfig();
    one.shards.count = 1;
    one.shards.threads = 4; // ignored in serial mode
    EXPECT_EQ(runFingerprint(one), base);
}

TEST(ShardedServe, NShardDeterministicAcrossRepeatsAndThreads)
{
    // The parallel decomposition must be a pure function of the
    // simulation: repeats and worker-thread counts change wall-clock
    // interleaving only, never results.
    ExperimentConfig cfg = shardedServeConfig();
    cfg.shards.count = 4;
    cfg.shards.threads = 1;

    const std::vector<std::string> base = runFingerprint(cfg);
    ASSERT_GT(base.size(), 10u);
    EXPECT_EQ(runFingerprint(cfg), base); // repeat, same shape

    cfg.shards.threads = 2;
    EXPECT_EQ(runFingerprint(cfg), base); // oversubscribed workers
    cfg.shards.threads = 4;
    EXPECT_EQ(runFingerprint(cfg), base);
}

TEST(ShardedServe, TraceRingsHoldTheirOwnRecordsAtEveryThreadCount)
{
    // The coordinator drives shard 0 between its control work, so its
    // records must go to shard 0's ring for that phase only. At every
    // thread count the main ring holds every arrival's record and no
    // record of the per-device loops that run only on shard queues
    // (polls, doorbells); the control plane's own calls into a device
    // (a departure's retire, say) are recorded there too. Each shard
    // ring holds its own devices' records only, and the merged
    // timeline is the same.
    ExperimentConfig cfg = shardedServeConfig();
    cfg.shards.count = 3;
    cfg.measure = msec(300);
    cfg.observe.categories = obs::defaultTraceCategories;
    cfg.observe.bufferCapacity = std::size_t(1) << 18;

    using Key = std::tuple<Tick, std::uint16_t, std::uint8_t, int,
                           std::int16_t, std::int32_t, std::int32_t,
                           std::int64_t, std::int64_t>;
    const auto tracedRun = [&](unsigned threads) -> std::vector<Key> {
        ExperimentConfig c = cfg;
        c.shards.threads = threads;
        ServeWorld world(c, shardedServeSpecs());
        world.start();
        world.runFor(c.measure);
        const ServeRunResult r = world.results();
        const obs::Observer &o = *world.observer;
        EXPECT_EQ(world.shardCore.threadCount(), threads);
        EXPECT_EQ(o.droppedRecords(), 0u);

        const auto shardLoop = [](const obs::TraceRecord &rec) {
            const std::string &name = obs::traceNameOf(rec.name);
            return name == "kern.poll" || name.rfind("kern.doorbell", 0) == 0;
        };
        std::uint64_t arrivals = 0;
        for (const obs::TraceRecord &rec :
             world.observer->recorder().snapshot()) {
            EXPECT_FALSE(shardLoop(rec))
                << "main ring holds " << obs::traceNameOf(rec.name)
                << " of device " << rec.device;
            if (rec.kind == obs::TraceKind::AsyncBegin &&
                obs::traceNameOf(rec.name) == "session")
                ++arrivals;
        }
        EXPECT_EQ(arrivals, r.arrivals);

        for (std::size_t s = 0; s < world.shardCore.shardCount(); ++s) {
            const std::vector<obs::TraceRecord> ring =
                o.shardRecorder(s).snapshot();
            EXPECT_TRUE(std::any_of(ring.begin(), ring.end(), shardLoop))
                << "shard " << s;
            for (const obs::TraceRecord &rec : ring) {
                const bool own =
                    rec.device >= 0 &&
                    world.shardCore.shardOfDevice(
                        static_cast<std::size_t>(rec.device)) == s;
                EXPECT_TRUE(own) << "shard " << s << " ring holds "
                                 << obs::traceNameOf(rec.name)
                                 << " of device " << rec.device;
            }
        }

        std::vector<Key> merged;
        for (const obs::TraceRecord &rec : o.mergedRecords())
            merged.emplace_back(rec.when, rec.name, rec.cat,
                                static_cast<int>(rec.kind), rec.device,
                                rec.pid, rec.session, rec.arg0, rec.arg1);
        return merged;
    };

    const std::vector<Key> base = tracedRun(1);
    ASSERT_GT(base.size(), 1000u);
    EXPECT_EQ(tracedRun(2), base);
    EXPECT_EQ(tracedRun(3), base);
}

TEST(ShardedServe, ShardCountCoversFleetAndWindows)
{
    ExperimentConfig cfg = shardedServeConfig();
    cfg.shards.count = 4;
    cfg.measure = msec(200);

    ServeWorld world(cfg, shardedServeSpecs());
    ASSERT_TRUE(world.shardCore.parallel());
    EXPECT_EQ(world.shardCore.shardCount(), 4u);
    // Harness-derived window: min(poll period, serve clock period).
    EXPECT_EQ(world.shardCore.window(),
              std::min(cfg.pollPeriod > 0 ? cfg.pollPeriod : msec(1),
                       cfg.serve.clockPeriod));

    world.start();
    world.runFor(cfg.measure);
    EXPECT_GT(world.shardCore.windowsRun(), 0u);
    EXPECT_EQ(world.shardCore.now(), msec(200));
}

TEST(ShardedServe, MetersReconcileUnderShardedMigrationAndDeath)
{
    // The hard case from the serial suite, now sharded: clock-steered
    // migration keeps retiring incarnations while a scripted death —
    // injected at a window barrier — evicts the victims, and watchdog
    // hang kills cross shards through the mailboxes. Every incarnation
    // must fold into the session ledger exactly once.
    ExperimentConfig cfg = shardedServeConfig();
    cfg.shards.count = 4;
    cfg.measure = sec(2);

    cfg.fault.watchdog.enabled = true;
    cfg.fault.watchdog.checkPeriod = msec(5);
    cfg.fault.watchdog.hangTimeout = msec(30);
    cfg.fault.watchdog.runawayTimeout = 0;
    cfg.fault.plan.script = {
        {msec(300), FaultKind::DeviceDeath, 0, msec(400)},
        {msec(500), FaultKind::ChannelHang, 1, 0},
    };

    ServeWorld world(cfg, shardedServeSpecs());
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    // The scenario actually exercised the cross-shard paths.
    EXPECT_GE(r.migrations, 1u);
    EXPECT_GE(r.evictions, 1u);
    EXPECT_EQ(r.fault.injectedDeaths, 1u);

    // Exact reconciliation: per-session sums equal the ground-truth
    // per-device meters across eviction, migration, and kill folds.
    Tick session_busy = 0;
    std::uint64_t session_reqs = 0;
    for (const auto &s : r.sessions) {
        session_busy += s.busy;
        session_reqs += s.requests;
    }
    Tick meter_busy = 0;
    std::uint64_t meter_reqs = 0;
    for (std::size_t i = 0; i < world.fleet.deviceCount(); ++i) {
        const UsageMeter &m = world.fleet.stack(i).meter;
        meter_busy += m.totalBusy();
        meter_reqs += m.totalRequests();
    }
    EXPECT_EQ(session_busy, meter_busy);
    EXPECT_EQ(session_reqs, meter_reqs);
    EXPECT_GT(session_busy, 0);

    // And the sharded run with faults is still deterministic.
    ServeWorld again(cfg, shardedServeSpecs());
    again.start();
    again.runFor(cfg.measure);
    EXPECT_EQ(again.eventsExecuted(), world.eventsExecuted());
    EXPECT_EQ(again.fleet.totalBusy(), world.fleet.totalBusy());
}

} // namespace
} // namespace neon
