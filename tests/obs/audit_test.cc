/**
 * @file
 * The invariant auditor: the AuditLog hot path counts every check and
 * records violations per name with capped samples; the Auditor drives
 * periodic/final checks on the virtual-time cadence and actually
 * detects seeded violations; the fleet's monotonicity pass evaluates
 * one vtime check per device whose policy publishes a virtual time
 * and one busy check per device, and names a seeded fall after its
 * device (the 'Shard' case on the parallel core, where shard threads
 * write the vtime cells); and the default-on auditor reports clean on
 * healthy closed and open-system runs (the always-on acceptance the
 * examples rely on).
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "harness/serve_runner.hh"
#include "obs/audit.hh"
#include "sched/vtime_tap.hh"
#include "sim/event_queue.hh"
#include "sim/sharded_engine.hh"
#include "workload/throttle.hh"

namespace neon
{
namespace
{

using namespace obs;

/** A fleet built by a test factory, audited from its control queue. */
struct AuditedFleet
{
    AuditedFleet(const ExperimentConfig &config,
                 const SchedulerFactory &make)
        : cfg(config), shardCore(cfg.shards, eq, cfg.fleet.devices),
          fleet(shardCore, cfg.fleet, cfg.device, cfg.costs,
                cfg.channelPolicy, cfg.pollPeriod, make),
          auditor(eq)
    {
    }

    void
    start()
    {
        fleet.start();
        auditor.start();
    }

    void runFor(Tick d) { shardCore.runFor(d); }

    ExperimentConfig cfg;
    EventQueue eq;
    ShardedEngine shardCore;
    FleetManager fleet;
    Auditor auditor;
};

/**
 * Ramp devices poll every 7 ms, so no poll shares a tick with an
 * audit pass (every 10 ms, and at finalize on a 5-ms boundary).
 */
constexpr Tick kRampPoll = msec(7);
constexpr Tick kRampTop = sec(1);

/** The vtime a ramp device publishes at its last poll by @p t. */
Tick
rampAt(Tick t, bool falling)
{
    const Tick polled = t - t % kRampPoll;
    return falling ? kRampTop - polled : polled;
}

/**
 * Publishes a system virtual time at each poll that rises with time,
 * or on a falling device, falls.
 */
class RampScheduler : public Scheduler, public VirtualTimeTap
{
  public:
    RampScheduler(KernelModule &kernel, bool falling)
        : Scheduler(kernel), falling(falling)
    {
    }

    FaultDecision
    onSubmitFault(Task &, Channel &, const GpuRequest &) override
    {
        return FaultDecision::Allow;
    }

    void
    onPoll(Tick now) override
    {
        vtime = rampAt(now, falling);
        publishSystemVtime(vtime);
    }

    VirtualTimeTap *vtimeTap() override { return this; }
    Tick tapSystemVtime() const override { return vtime; }
    Tick tapTaskVtime(int) const override { return 0; }

  private:
    const bool falling;
    Tick vtime = rampAt(0, falling);
};

/** No ramp device falls. */
constexpr std::size_t kNoFall = ~std::size_t{0};

/** Ramp devices; the one at index @p falling falls. */
SchedulerFactory
rampFactory(std::size_t falling)
{
    return [falling](KernelModule &kernel, const UsageMeter &,
                     std::size_t device) -> std::unique_ptr<Scheduler> {
        return std::make_unique<RampScheduler>(kernel, device == falling);
    };
}

/** @p devices ramp devices on @p shards shards (0 = serial). */
ExperimentConfig
rampConfig(std::size_t devices, unsigned shards)
{
    ExperimentConfig cfg;
    cfg.fleet.devices = devices;
    cfg.pollPeriod = kRampPoll;
    cfg.shards.count = shards;
    cfg.shards.threads = shards;
    cfg.shards.window = msec(1);
    return cfg;
}

TEST(AuditLog, CountsChecksAndCapsSamples)
{
    static_assert(AuditLog::maxSamples == 8);
    AuditLog log;
    for (int i = 0; i < 3; ++i)
        log.check(true, "fine", i);
    log.check(false, "bad_a", 10, 5, 4);
    for (int i = 0; i < 5; ++i)
        log.check(false, "bad_a", 11 + i, 5, 3);
    for (int i = 0; i < 6; ++i)
        log.check(false, "bad_b", 20 + i, 1, 0);

    EXPECT_EQ(log.checks(), 15u);
    EXPECT_EQ(log.violations(), 12u);

    const AuditReport r = log.report();
    EXPECT_FALSE(r.clean());
    EXPECT_EQ(r.checks, 15u);
    EXPECT_EQ(r.violations, 12u);

    // Counts are exact per check name; samples cap at the limit.
    ASSERT_EQ(r.byCheck.size(), 2u);
    EXPECT_EQ(r.byCheck[0].first, "bad_a");
    EXPECT_EQ(r.byCheck[0].second, 6u);
    EXPECT_EQ(r.byCheck[1].first, "bad_b");
    EXPECT_EQ(r.byCheck[1].second, 6u);
    ASSERT_EQ(r.samples.size(), AuditLog::maxSamples);
    EXPECT_EQ(r.samples[0].check, "bad_a");
    EXPECT_EQ(r.samples[0].when, 10);
    EXPECT_EQ(r.samples[0].expected, 5);
    EXPECT_EQ(r.samples[0].actual, 4);

    // The summary names the failing checks, not just totals.
    const std::string s = r.summary();
    EXPECT_NE(s.find("bad_a"), std::string::npos);
}

TEST(AuditLog, CleanReportAfterPassingChecks)
{
    AuditLog log;
    for (int i = 0; i < 100; ++i)
        log.check(true, "inv", i);
    const AuditReport r = log.report();
    EXPECT_TRUE(r.clean());
    EXPECT_EQ(r.checks, 100u);
    EXPECT_TRUE(r.byCheck.empty());
    EXPECT_TRUE(r.samples.empty());
}

TEST(Auditor, PeriodicCadenceAndSeededViolations)
{
    static_assert(AuditConfig::period == msec(10));
    AuditedFleet f(rampConfig(2, 0), rampFactory(1));
    Auditor &a = f.auditor;

    // A passing periodic check, a failing one, the fleet's
    // monotonicity pass over a device whose vtime falls, and a final
    // check that only runs at finalize.
    int periodic_runs = 0;
    a.addPeriodic([&](AuditLog &log, Tick now) {
        ++periodic_runs;
        log.check(true, "ok", now);
    });
    a.addPeriodic([](AuditLog &log, Tick now) {
        log.check(false, "seeded", now, 1, 0);
    });
    registerFleetAudits(a, f.fleet);
    int final_runs = 0;
    a.addFinal([&](AuditLog &log, Tick now) {
        ++final_runs;
        log.check(true, "final_only", now);
    });

    f.start();
    f.runFor(msec(45)); // boundaries at 10, 20, 30, 40
    EXPECT_EQ(final_runs, 0);
    a.finalize();

    // 4 periodic ticks + the finalize pass.
    EXPECT_EQ(periodic_runs, 5);
    EXPECT_EQ(final_runs, 1);

    const AuditReport r = a.report();
    EXPECT_FALSE(r.clean());
    std::uint64_t seeded = 0, falling = 0;
    for (const auto &kv : r.byCheck) {
        if (kv.first == "seeded")
            seeded = kv.second;
        if (kv.first == "dev1.vtime_monotone")
            falling = kv.second;
    }
    EXPECT_EQ(seeded, 5u);
    // Every observation after the first sees a smaller value.
    EXPECT_EQ(falling, 4u);
    EXPECT_EQ(r.violations, seeded + falling) << r.summary();

    // finalize is idempotent: no further checks accrue.
    const std::uint64_t checks = r.checks;
    a.finalize();
    EXPECT_EQ(a.report().checks, checks);
}

TEST(Auditor, MonotoneProbePassesWhenNonDecreasing)
{
    // Every vtime rises; the idle meters hold their busy totals.
    AuditedFleet f(rampConfig(2, 0), rampFactory(kNoFall));
    registerFleetAudits(f.auditor, f.fleet);
    f.start();
    f.runFor(msec(60));
    f.auditor.finalize();
    const AuditReport r = f.auditor.report();
    EXPECT_TRUE(r.clean()) << r.summary();
    EXPECT_GT(r.checks, 0u);
}

/** A loaded 4-device @p sched fleet: one throttle task per device. */
void
expectOneCheckPerTapAndDevice(SchedKind sched, std::size_t tapped)
{
    constexpr std::size_t devices = 4;
    ExperimentConfig cfg;
    cfg.sched = sched;
    cfg.fleet.devices = devices;
    AuditedFleet f(cfg, [&cfg](KernelModule &kernel,
                               const UsageMeter &meter, std::size_t) {
        return makeScheduler(cfg, kernel, &meter);
    });
    for (std::size_t d = 0; d < devices; ++d) {
        Task &t = f.fleet.createTaskOn(d, {"load", "", 1.0});
        f.fleet.startTask(t, throttleBody(t, {usec(300), 0.2}, d + 1));
    }
    registerFleetAudits(f.auditor, f.fleet);
    f.start();

    const std::uint64_t perPass = tapped + devices;
    f.runFor(msec(5));
    EXPECT_EQ(f.auditor.report().checks, 0u);
    for (std::uint64_t tick = 1; tick <= 6; ++tick) {
        f.runFor(msec(10)); // past the pass at tick x 10 ms
        EXPECT_EQ(f.auditor.report().checks, (tick - 1) * perPass)
            << "after pass " << tick;
    }
    f.auditor.finalize();
    const AuditReport r = f.auditor.report();
    EXPECT_EQ(r.checks, 6 * perPass);
    EXPECT_TRUE(r.clean()) << r.summary();
    EXPECT_GT(f.fleet.totalBusy(), 0);
}

TEST(FleetAudit, DfqFleetChecksVtimeAndBusyPerDevice)
{
    expectOneCheckPerTapAndDevice(SchedKind::DisengagedFq, 4);
}

TEST(FleetAudit, TimesliceFleetChecksBusyOnly)
{
    // Timeslice keeps no virtual time: its cells stay unset.
    expectOneCheckPerTapAndDevice(SchedKind::Timeslice, 0);
}

/**
 * Six ramp devices on @p shards shards, device 4 falling: only its
 * vtime check fails, once per pass after the first, and each sample
 * holds the previous and the current observation.
 */
void
expectSeededFallNamedAndSampled(unsigned shards)
{
    constexpr std::size_t devices = 6;
    constexpr std::size_t falling = 4;
    AuditedFleet f(rampConfig(devices, shards), rampFactory(falling));
    registerFleetAudits(f.auditor, f.fleet);
    f.start();
    f.runFor(msec(45)); // passes at 10, 20, 30 and 40 ms
    f.auditor.finalize(); // and at 45 ms

    const AuditReport r = f.auditor.report();
    EXPECT_EQ(r.checks, 4 * 2 * devices);
    EXPECT_EQ(r.violations, 4u);
    ASSERT_EQ(r.byCheck.size(), 1u) << r.summary();
    EXPECT_EQ(r.byCheck[0].first, "dev4.vtime_monotone");
    EXPECT_EQ(r.byCheck[0].second, 4u);

    const Tick passes[] = {msec(10), msec(20), msec(30), msec(40), msec(45)};
    ASSERT_EQ(r.samples.size(), 4u);
    for (std::size_t k = 0; k < r.samples.size(); ++k) {
        const AuditViolation &v = r.samples[k];
        EXPECT_EQ(v.check, "dev4.vtime_monotone");
        EXPECT_EQ(v.when, passes[k + 1]);
        EXPECT_EQ(v.expected, rampAt(passes[k], true)) << "sample " << k;
        EXPECT_EQ(v.actual, rampAt(passes[k + 1], true)) << "sample " << k;
    }
}

TEST(FleetAudit, SeededVtimeFallIsNamedAndSampled)
{
    expectSeededFallNamedAndSampled(0);
}

TEST(FleetAudit, ShardedSeededVtimeFallIsNamedAndSampled)
{
    expectSeededFallNamedAndSampled(3);
}

TEST(Audit, ClosedWorldRunsCleanByDefault)
{
    // The auditor is on by default in every world; a healthy two-task
    // closed run must pass vtime/busy monotonicity with zero
    // violations and a nonzero check count.
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.warmup = msec(50);
    cfg.measure = msec(500);
    ExperimentRunner runner(cfg);
    const RunResult r = runner.run({
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(430)),
    });
    EXPECT_GT(r.audit.checks, 0u);
    EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
}

TEST(Audit, HealthyServeRunIsCleanAndReconcilesUsage)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 4;
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.measure = sec(1);

    WorkloadSpec w = WorkloadSpec::throttle(usec(430));
    w.label = "open";
    const std::vector<ServeWorkloadSpec> specs = {
        {w, ArrivalSpec::poisson(60.0, msec(600)),
         LifetimeSpec::exponential(msec(150))},
    };

    ServeWorld world(cfg, specs);
    ASSERT_NE(world.auditor, nullptr);
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    EXPECT_GT(r.arrivals, 0u);
    EXPECT_GT(r.audit.checks, 0u);
    EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
}

TEST(Audit, ReconciliationCatchesAChargeAfterTheFold)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 4;
    cfg.serve.slotsPerDevice = 2;
    cfg.measure = sec(1);

    WorkloadSpec w = WorkloadSpec::throttle(usec(430));
    w.label = "open";
    const std::vector<ServeWorkloadSpec> specs = {
        {w, ArrivalSpec::poisson(60.0, msec(600)),
         LifetimeSpec::fixed(msec(100))},
    };

    ServeWorld world(cfg, specs);
    world.start();
    world.runFor(cfg.measure);

    // The first incarnation retired long ago: its usage was folded
    // into its session and its meter slot freed. One more tick charged
    // to its pid (as if a request's occupancy landed after the fold)
    // belongs to no session, and the final reconciliation must say so.
    const FleetTaskUsage first = world.fleet.taskUsage().front();
    ASSERT_EQ(world.fleet.stack(first.device).kernel.findTask(first.pid),
              nullptr);
    world.fleet.stack(first.device)
        .meter.recordBusy(first.pid, 1, RequestClass::Compute);

    const ServeRunResult r = world.results();
    EXPECT_EQ(r.audit.violations, 1u) << r.audit.summary();
    ASSERT_EQ(r.audit.byCheck.size(), 1u) << r.audit.summary();
    EXPECT_EQ(r.audit.byCheck[0].first, "serve.usage_reconciliation");
    EXPECT_EQ(r.audit.byCheck[0].second, 1u);
}

TEST(Audit, DisabledAuditorReportsNoChecks)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 2;
    cfg.serve.slotsPerDevice = 2;
    cfg.measure = msec(200);
    cfg.observe.audit.enabled = false;

    WorkloadSpec w = WorkloadSpec::throttle(usec(430));
    w.label = "off";
    const std::vector<ServeWorkloadSpec> specs = {
        {w, ArrivalSpec::poisson(40.0, msec(100)),
         LifetimeSpec::fixed(msec(50))},
    };

    ServeWorld world(cfg, specs);
    EXPECT_EQ(world.auditor, nullptr);
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();
    EXPECT_EQ(r.audit.checks, 0u);
    EXPECT_TRUE(r.audit.clean());
}

TEST(Audit, FaultyServeRunStaysClean)
{
    // Device death, watchdog kills, failover, retry backoff: the
    // conservation and reconciliation invariants must hold through all
    // of it (the runtime form of the fault-integration accounting
    // assertions).
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.dfq.killThreshold = sec(30);
    cfg.fleet.devices = 4;
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(25);
    cfg.measure = sec(2);
    cfg.fault.watchdog.enabled = true;
    cfg.fault.watchdog.checkPeriod = msec(2);
    cfg.fault.watchdog.hangTimeout = msec(20);
    cfg.fault.watchdog.runawayTimeout = 0;
    cfg.fault.plan.script = {
        {msec(200), FaultKind::ChannelHang, 1, 0},
        {msec(500), FaultKind::DeviceDeath, 2, msec(300)},
    };

    WorkloadSpec w = WorkloadSpec::throttle(usec(300));
    w.label = "sess";
    std::vector<Tick> arrivals;
    for (int i = 0; i < 12; ++i)
        arrivals.push_back(i * msec(30));
    const std::vector<ServeWorkloadSpec> specs = {
        {w, ArrivalSpec::trace(arrivals), LifetimeSpec::fixed(msec(700))},
    };

    ServeWorld world(cfg, specs);
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    ASSERT_GE(r.kills + r.evictions, 1u) << "faults must have landed";
    EXPECT_GT(r.audit.checks, 0u);
    EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
}

} // namespace
} // namespace neon
