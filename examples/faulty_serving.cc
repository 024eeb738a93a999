/**
 * @file
 * Serving under fire: an oversubscribed open system with a seeded
 * fault plan and watchdog protection.
 *
 * Four DFQ devices take a ~2.5x-oversubscribed Poisson session stream
 * while the fault plane injects a scripted mid-run device death (with
 * repair), stochastic transient stalls, and channel hangs. The
 * per-device watchdog detects each hang by doorbell-progress timeout
 * and kills the offender; sessions interrupted by the death fail over
 * to the surviving devices through admission retry with exponential
 * backoff. The run prints the availability report: injected vs.
 * detected vs. recovered, MTTD/MTTR, and goodput under faults.
 *
 * Usage: faulty_serving [trace.json]
 * Set NEON_VERBOSE=1 for kernel status output during the run.
 */

#include <cstdio>
#include <iostream>

#include "neon/neon.hh"

using namespace neon;

int
main(int argc, char **argv)
{
    applyVerboseEnv();

    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 4;
    cfg.serve.admission = AdmissionKind::FairShare;
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(25);
    cfg.serve.retry.maxRetries = 5;
    cfg.measure = sec(3);

    // Watchdog on every device: scan each 2ms, hang after 30ms of no
    // doorbell progress, runaway after 120ms of one request.
    cfg.fault.watchdog.enabled = true;
    cfg.fault.watchdog.checkPeriod = msec(2);
    cfg.fault.watchdog.hangTimeout = msec(30);
    cfg.fault.watchdog.runawayTimeout = msec(120);

    // A scripted mid-run death of device 1 (repaired 400ms later) on
    // top of stochastic stalls and channel hangs.
    cfg.fault.plan.script = {
        {sec(1), FaultKind::DeviceDeath, 1, msec(400)},
    };
    cfg.fault.plan.enabled = true;
    cfg.fault.plan.horizon = cfg.measure;
    cfg.fault.plan.stallRatePerSec = 1.0;
    cfg.fault.plan.meanStall = msec(10);
    cfg.fault.plan.hangRatePerSec = 1.0;

    if (argc > 1) {
        cfg.observe.categories = obs::defaultTraceCategories;
        cfg.observe.bufferCapacity = std::size_t(1) << 18;
        cfg.observe.tracePath = argv[1];
    }

    WorkloadSpec w = WorkloadSpec::throttle(usec(300));
    w.label = "session";
    const std::vector<ServeWorkloadSpec> classes = {
        {w, ArrivalSpec::poisson(60.0, sec(2)),
         LifetimeSpec::exponential(msec(250)), "tenantA"},
    };

    ServeRunner runner(cfg);
    const ServeRunResult r = runner.run(classes, /*with_slowdowns=*/false);
    const AvailabilityReport &f = r.fault;

    std::printf("arrivals %llu, departures %llu, goodput %.0f req/s\n",
                static_cast<unsigned long long>(r.arrivals),
                static_cast<unsigned long long>(r.departures),
                r.throughputRps);
    std::printf("injected: %llu deaths, %llu stalls, %llu hangs "
                "(%llu skipped)\n",
                static_cast<unsigned long long>(f.injectedDeaths),
                static_cast<unsigned long long>(f.injectedStalls),
                static_cast<unsigned long long>(f.injectedHangs),
                static_cast<unsigned long long>(f.skippedInjections));
    std::printf("watchdog: %llu hang kills (%llu of the injected, "
                "MTTD %.2f ms), %llu runaway kills\n",
                static_cast<unsigned long long>(f.watchdogHangKills),
                static_cast<unsigned long long>(f.detectedHangs),
                f.mttdMs,
                static_cast<unsigned long long>(f.watchdogRunawayKills));
    std::printf("failover: %llu evicted, %llu recovered, %llu shed "
                "(recovery %.0f%%), MTTR %.1f ms, availability %.4f\n",
                static_cast<unsigned long long>(r.evictions),
                static_cast<unsigned long long>(f.recoveredSessions),
                static_cast<unsigned long long>(r.shedSessions -
                                                r.predictiveSheds),
                100.0 * r.recoveryRate, f.mttrMs, f.availability);
    if (!r.observeSummary.empty())
        std::cout << "wrote " << cfg.observe.tracePath << ": "
                  << r.observeSummary << "\n";
    std::cout << r.audit.summary() << "\n";
    return r.audit.clean() ? 0 : 1;
}
