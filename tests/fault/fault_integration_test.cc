/**
 * @file
 * Acceptance integration for the fault plane: a 4-device fleet at
 * >2x oversubscription with a scripted plan — one mid-run device
 * death (repaired), a transient stall, and channel hangs. The
 * watchdog must detect every injected hang within its latency bound,
 * interrupted sessions must recover through failover/retry with
 * exact usage accounting, the availability report must match the
 * injected counts, and an empty plan must leave the run bit-identical
 * to a faults-off run at the same seed. A long whole-fleet outage must
 * keep the retry backoff capped and end in recovery or, once the retry
 * budget is spent, a shed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/serve_runner.hh"

namespace neon
{
namespace
{

/** Session-side usage sums must equal the device meters exactly. */
void
expectExactAccounting(ServeWorld &world, const ServeRunResult &r)
{
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
}

TEST(FaultIntegration, OversubscribedFleetSurvivesScriptedFaults)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.dfq.killThreshold = sec(30); // kills below are the watchdog's
    cfg.fleet.devices = 4;
    cfg.serve.slotsPerDevice = 2; // fleet capacity: 8 sessions
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(25);
    cfg.measure = sec(4);

    cfg.fault.watchdog.enabled = true;
    cfg.fault.watchdog.checkPeriod = msec(2);
    cfg.fault.watchdog.hangTimeout = msec(20);
    cfg.fault.watchdog.runawayTimeout = 0;

    // Scripted, so every fault lands deterministically mid-run while
    // the fleet is saturated: a transient stall, two channel hangs on
    // different devices, and a device death repaired 300ms later.
    cfg.fault.plan.script = {
        {msec(150), FaultKind::DeviceStall, 0, msec(10)},
        {msec(300), FaultKind::ChannelHang, 2, 0},
        {msec(350), FaultKind::ChannelHang, 3, 0},
        {msec(600), FaultKind::DeviceDeath, 1, msec(300)},
    };

    // 20 sessions arriving over 475ms, each wanting 1s of residency:
    // 20 in-system against capacity 8 is 2.5x oversubscription.
    std::vector<Tick> arrivals;
    for (int i = 0; i < 20; ++i)
        arrivals.push_back(i * msec(25));
    WorkloadSpec w = WorkloadSpec::throttle(usec(300));
    w.label = "sess";
    const std::vector<ServeWorkloadSpec> specs = {
        {w, ArrivalSpec::trace(arrivals), LifetimeSpec::fixed(sec(1))},
    };

    ServeWorld world(cfg, specs);
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();
    const AvailabilityReport &f = r.fault;

    // The offered load really oversubscribed the fleet.
    EXPECT_EQ(r.arrivals, 20u);
    EXPECT_EQ(r.capacity, 8u);
    EXPECT_GE(r.peakLiveSessions, 2 * r.capacity);

    // Injection matches the script exactly; nothing was skipped.
    EXPECT_EQ(f.injectedDeaths, 1u);
    EXPECT_EQ(f.injectedStalls, 1u);
    EXPECT_EQ(f.injectedHangs, 2u);
    EXPECT_EQ(f.skippedInjections, 0u);
    EXPECT_EQ(f.repairs, 1u);

    // The watchdog detected every injected hang — and nothing else —
    // within the hangTimeout + scan-granularity bound.
    EXPECT_EQ(f.detectedHangs, f.injectedHangs);
    EXPECT_EQ(f.watchdogHangKills, 2u);
    EXPECT_EQ(f.watchdogRunawayKills, 0u);
    EXPECT_EQ(f.schedulerKills, 0u);
    EXPECT_EQ(r.kills, 2u);
    ASSERT_NE(world.injector, nullptr);
    for (const HangRecord &h : world.injector->hangs())
        EXPECT_TRUE(h.detected);
    const Tick bound = cfg.fault.watchdog.hangTimeout +
        2 * cfg.fault.watchdog.checkPeriod;
    for (const WatchdogKill &k : world.fleet.watchdogKillLog()) {
        EXPECT_EQ(k.cause, WatchdogCause::Hang);
        EXPECT_LE(k.latency, bound);
    }
    EXPECT_GT(f.mttdMs, 0.0);
    EXPECT_LE(f.mttdMs, toMsec(bound));

    // The death interrupted live sessions; every one of them failed
    // over and eventually departed (acceptance asks for >= 95%).
    EXPECT_GE(r.evictions, 1u);
    EXPECT_GE(r.recoveryRate, 0.95);
    EXPECT_EQ(r.shedSessions, 0u);
    EXPECT_GE(r.failovers, r.evictions); // every interruption resumed
    for (const auto &s : r.sessions) {
        if (s.evictions > 0 && !s.killed) {
            EXPECT_EQ(s.failovers, s.evictions);
            EXPECT_TRUE(s.hasDeparted());
        }
    }

    // The run drains: everyone departs except the two hang casualties.
    EXPECT_EQ(r.queuedAtEnd, 0u);
    std::uint64_t killed = 0;
    for (const auto &s : r.sessions)
        killed += s.killed ? 1u : 0u;
    EXPECT_EQ(killed, 2u);
    EXPECT_EQ(r.departures, r.arrivals - killed);

    // Exact accounting across evictions, kills, and failovers.
    expectExactAccounting(world, r);

    // Availability reflects exactly one 300ms outage over 4 device-
    // seconds x 4 devices, closed within the run.
    EXPECT_NEAR(f.mttrMs, 300.0, 1e-9);
    EXPECT_NEAR(f.availability,
                1.0 -
                    static_cast<double>(msec(300)) /
                        static_cast<double>(4 * sec(4)),
                1e-9);
}

TEST(FaultIntegration, RetryBackoffStaysCappedThroughALongOutage)
{
    // One session on a one-device fleet whose device dies for 10 s.
    // Every backoff round on the hopeless fleet consumes a retry, so a
    // budget of 200 outlives 64 rounds (past the width of a Tick
    // shift): the backoff must ramp, stay at its cap, and the session
    // must resume after the repair. The default budget of 3 must shed
    // the session instead, with every outcome still accounted.
    for (const int max_retries : {200, 3}) {
        SCOPED_TRACE("maxRetries=" + std::to_string(max_retries));
        ExperimentConfig cfg;
        cfg.sched = SchedKind::DisengagedFq;
        cfg.fleet.devices = 1;
        cfg.serve.slotsPerDevice = 1;
        cfg.serve.retry.maxRetries = max_retries;
        cfg.measure = sec(12);
        cfg.fault.plan.script = {
            {msec(100), FaultKind::DeviceDeath, 0, sec(10)},
        };
        cfg.observe.categories =
            static_cast<std::uint32_t>(obs::TraceCategory::Fault);

        WorkloadSpec w = WorkloadSpec::throttle(usec(300));
        w.label = "sess";
        const std::vector<ServeWorkloadSpec> specs = {
            {w, ArrivalSpec::trace({0}), LifetimeSpec::fixed(sec(1))},
        };

        ServeWorld world(cfg, specs);
        world.start();
        world.runFor(cfg.measure);
        const ServeRunResult r = world.results();
        ASSERT_EQ(r.traceDrops, 0u);

        std::vector<Tick> backoffs;
        for (const obs::TraceRecord &rec : world.observer->mergedRecords()) {
            if (obs::traceNameOf(rec.name) == "serve.retry_backoff")
                backoffs.push_back(rec.arg1);
        }
        // The ramp doubles from the base, then holds at the cap.
        Tick want = cfg.serve.retry.backoffBase;
        for (std::size_t i = 0; i < backoffs.size(); ++i) {
            EXPECT_EQ(backoffs[i], want) << "backoff " << i;
            want = std::min(2 * want, cfg.serve.retry.backoffCap);
        }

        ASSERT_EQ(r.sessions.size(), 1u);
        const ServeSessionResult &s = r.sessions[0];
        EXPECT_EQ(s.evictions, 1);
        if (max_retries == 200) {
            EXPECT_GT(backoffs.size(), 129u); // past shifts 64 and 128
            EXPECT_EQ(s.failovers, 1);
            EXPECT_TRUE(s.hasDeparted());
            EXPECT_FALSE(s.shed);
            EXPECT_GE(s.departed, msec(100) + sec(10));
            EXPECT_EQ(r.shedSessions, 0u);
            EXPECT_EQ(r.departures, 1u);
        } else {
            EXPECT_EQ(backoffs.size(), 3u);
            EXPECT_EQ(s.failovers, 0);
            EXPECT_FALSE(s.hasDeparted());
            EXPECT_TRUE(s.shed);
            EXPECT_FALSE(s.shedPredicted);
            EXPECT_EQ(r.shedSessions, 1u);
            EXPECT_EQ(r.departures, 0u);
            EXPECT_EQ(r.shedSessions - r.predictiveSheds, 1u);
        }
        // Conservation: the one arrival ended exactly one way.
        EXPECT_EQ(r.arrivals, 1u);
        EXPECT_EQ(r.arrivals, r.departures + r.kills + r.shedSessions +
                                  r.throttledSessions);
        expectExactAccounting(world, r);
        EXPECT_GT(r.audit.checks, 0u);
        EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
    }
}

TEST(FaultIntegration, EmptyPlanIsBitIdenticalToFaultsOff)
{
    // Stream isolation end to end: enabling the fault plane with an
    // empty plan (watchdog scanning included) must not shift a single
    // arrival, placement, service draw, or migration.
    ExperimentConfig base;
    base.sched = SchedKind::DisengagedFq;
    base.fleet.devices = 4;
    base.serve.slotsPerDevice = 2;
    base.serve.useGlobalClock = true;
    base.serve.clockPeriod = msec(10);
    base.serve.migrationLag = msec(10);
    base.measure = sec(2);
    base.seed = 1234;

    WorkloadSpec w = WorkloadSpec::throttle(usec(430));
    w.label = "open";
    const std::vector<ServeWorkloadSpec> specs = {
        {w, ArrivalSpec::poisson(80.0, sec(1)),
         LifetimeSpec::exponential(msec(200))},
    };

    ExperimentConfig guarded = base;
    guarded.fault.watchdog.enabled = true;
    guarded.fault.watchdog.checkPeriod = msec(2);
    guarded.fault.plan.enabled = true; // enabled, but nothing to inject
    guarded.fault.plan.horizon = base.measure;

    ServeWorld a(base, specs);
    a.start();
    a.runFor(base.measure);
    const ServeRunResult ra = a.results();

    ServeWorld b(guarded, specs);
    b.start();
    b.runFor(guarded.measure);
    const ServeRunResult rb = b.results();

    EXPECT_EQ(b.injector, nullptr); // an empty plan schedules nothing

    EXPECT_EQ(ra.arrivals, rb.arrivals);
    EXPECT_EQ(ra.departures, rb.departures);
    EXPECT_EQ(ra.requests, rb.requests);
    EXPECT_EQ(ra.migrations, rb.migrations);
    EXPECT_EQ(ra.kills, rb.kills);
    ASSERT_EQ(ra.sessions.size(), rb.sessions.size());
    for (std::size_t i = 0; i < ra.sessions.size(); ++i) {
        const ServeSessionResult &sa = ra.sessions[i];
        const ServeSessionResult &sb = rb.sessions[i];
        EXPECT_EQ(sa.label, sb.label);
        EXPECT_EQ(sa.arrived, sb.arrived);
        EXPECT_EQ(sa.admitted, sb.admitted);
        EXPECT_EQ(sa.departed, sb.departed);
        EXPECT_EQ(sa.busy, sb.busy);
        EXPECT_EQ(sa.requests, sb.requests);
        EXPECT_EQ(sa.migrations, sb.migrations);
        EXPECT_EQ(sa.devices, sb.devices);
    }
    ASSERT_EQ(ra.deviceBusy.size(), rb.deviceBusy.size());
    for (std::size_t i = 0; i < ra.deviceBusy.size(); ++i)
        EXPECT_EQ(ra.deviceBusy[i], rb.deviceBusy[i]);
}

} // namespace
} // namespace neon
