/**
 * @file
 * The invariant auditor: the AuditLog hot path counts every check and
 * records violations per name with capped samples; the Auditor drives
 * periodic/monotone/final checks on the virtual-time cadence and
 * actually detects seeded violations; and the default-on auditor
 * reports clean on healthy closed and open-system runs (the always-on
 * acceptance the examples rely on).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/serve_runner.hh"
#include "obs/audit.hh"
#include "sim/event_queue.hh"

namespace neon
{
namespace
{

using namespace obs;

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
    EventQueue eq;
    Auditor a(eq);

    // A passing periodic check, a failing one, a decreasing monotone
    // probe, and a final check that only runs at finalize.
    int periodic_runs = 0;
    a.addPeriodic("ok", [&](AuditLog &log, Tick now) {
        ++periodic_runs;
        log.check(true, "ok", now);
    });
    a.addPeriodic("seeded", [](AuditLog &log, Tick now) {
        log.check(false, "seeded", now, 1, 0);
    });
    double probe_value = 100.0;
    a.addMonotone("shrinking", [&] { return probe_value -= 1.0; });
    int final_runs = 0;
    a.addFinal("final_only", [&](AuditLog &log, Tick now) {
        ++final_runs;
        log.check(true, "final_only", now);
    });

    a.start();
    eq.runFor(msec(45)); // boundaries at 10, 20, 30, 40
    EXPECT_EQ(final_runs, 0);
    a.finalize();

    // 4 periodic ticks + the finalize pass.
    EXPECT_EQ(periodic_runs, 5);
    EXPECT_EQ(final_runs, 1);

    const AuditReport r = a.report();
    EXPECT_FALSE(r.clean());
    std::uint64_t seeded = 0, shrinking = 0;
    for (const auto &kv : r.byCheck) {
        if (kv.first == "seeded")
            seeded = kv.second;
        if (kv.first == "shrinking")
            shrinking = kv.second;
    }
    EXPECT_EQ(seeded, 5u);
    // Every observation after the first sees a smaller value.
    EXPECT_GE(shrinking, 4u);

    // finalize is idempotent: no further checks accrue.
    const std::uint64_t checks = r.checks;
    a.finalize();
    EXPECT_EQ(a.report().checks, checks);
}

TEST(Auditor, MonotoneProbePassesWhenNonDecreasing)
{
    EventQueue eq;
    Auditor a(eq);
    double v = 0.0;
    a.addMonotone("growing", [&] { return v += 2.0; });
    a.start();
    eq.runFor(msec(60));
    a.finalize();
    const AuditReport r = a.report();
    EXPECT_TRUE(r.clean()) << r.summary();
    EXPECT_GT(r.checks, 0u);
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
