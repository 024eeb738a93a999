/**
 * @file
 * Machine-readable performance report for the simulation core.
 *
 * Runs the event-core microbenchmark cases (schedule/run,
 * schedule/cancel churn, fleet-scale interleave) plus an end-to-end
 * Disengaged Fair Queueing experiment, and writes a BENCH_simcore.json
 * with events/sec, simulated-ms per wall-second, and peak live event
 * counts. Subsequent PRs regress against this trajectory; the CI
 * perf-smoke job fails the build if throughput drops below a floor.
 *
 * Deliberately self-contained (std::chrono, no google-benchmark) so it
 * builds and runs everywhere the library does.
 *
 * Usage: bench_perf_report [--out PATH] [--floor EVENTS_PER_SEC]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "neon/neon.hh"
#include "simcore_cases.hh"

namespace
{

using namespace neon;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Outcome of one timed case. */
struct CaseResult
{
    std::uint64_t items = 0;  ///< events (or ops) executed
    double wallS = 0.0;
    double itemsPerSec = 0.0;
    std::size_t peakLive = 0;
    std::uint64_t compactions = 0;
};

/** Time repeated batches of @p batch until ~minS wall seconds pass. */
template <typename Batch>
CaseResult
timeCase(double min_s, Batch &&batch)
{
    CaseResult r;
    const auto t0 = Clock::now();
    do {
        EventQueue eq;
        r.items += batch(eq);
        const auto st = eq.stats();
        r.peakLive = std::max(r.peakLive, st.peakLive);
        r.compactions += st.compactions;
    } while (secondsSince(t0) < min_s);
    r.wallS = secondsSince(t0);
    r.itemsPerSec = static_cast<double>(r.items) / r.wallS;
    return r;
}

/** End-to-end: a busy two-task world under Disengaged Fair Queueing. */
struct EndToEnd
{
    double simMs = 0.0;
    double wallS = 0.0;  ///< measured run interval only
    double setupS = 0.0; ///< world construction + start (excluded)
    double simMsPerWallS = 0.0;
    std::uint64_t events = 0;
    std::size_t peakLive = 0;
};

/** End-to-end serving: open Poisson load over a 4-device DFQ fleet. */
struct EndToEndServe
{
    double simMs = 0.0;
    double wallS = 0.0;  ///< measured run interval only
    double setupS = 0.0; ///< construction/start incl. thread spawn
    double simMsPerWallS = 0.0;
    double sessionsPerWallS = 0.0;
    std::uint64_t sessions = 0;
    std::uint64_t migrations = 0;
    std::uint64_t events = 0;
};

EndToEndServe
endToEndServe()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 4;
    cfg.fleet.speedFactors = {1.25, 1.0, 1.0, 0.75};
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(10);
    cfg.measure = sec(2);

    WorkloadSpec w = WorkloadSpec::throttle(usec(430));
    w.label = "open";
    const ServeWorkloadSpec spec{w, ArrivalSpec::poisson(80.0, sec(1)),
                                 LifetimeSpec::fixed(msec(200))};

    // Setup (world assembly, kernel start, shard-thread spawn) is
    // timed separately so the measured interval is pure simulation.
    EndToEndServe r;
    const auto c0 = Clock::now();
    ServeWorld world(cfg, {spec});
    world.start();
    r.setupS = secondsSince(c0);

    const auto t0 = Clock::now();
    world.runFor(cfg.measure);
    r.wallS = secondsSince(t0);
    const ServeRunResult res = world.results();

    r.simMs = toMsec(cfg.measure);
    r.simMsPerWallS = r.simMs / r.wallS;
    r.sessions = res.departures;
    r.sessionsPerWallS = static_cast<double>(res.departures) / r.wallS;
    r.migrations = res.migrations;
    r.events = world.eventsExecuted();

    if (res.departures == 0 || res.queuedAtEnd != 0) {
        std::cerr << "perf_report: serving run did not drain\n";
        std::exit(2);
    }
    return r;
}

EndToEnd
endToEndDfq()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.warmup = msec(50);
    cfg.measure = msec(500);

    EndToEnd r;
    const auto c0 = Clock::now();
    World w(cfg);
    w.spawn(WorkloadSpec::app("DCT"));
    w.spawn(WorkloadSpec::throttle(usec(430)));
    w.start();
    r.setupS = secondsSince(c0);

    const auto t0 = Clock::now();
    w.runFor(cfg.warmup);
    w.beginMeasurement();
    w.runFor(cfg.measure);
    r.wallS = secondsSince(t0);
    const RunResult res = w.results();

    r.simMs = toMsec(cfg.warmup + cfg.measure);
    r.simMsPerWallS = r.simMs / r.wallS;
    r.events = w.eq.executed();
    r.peakLive = w.eq.stats().peakLive;

    if (res.deviceBusy.at(0) <= 0) {
        std::cerr << "perf_report: end-to-end run did no device work\n";
        std::exit(2);
    }
    return r;
}

/** One point of the shard-count scaling sweep. */
struct ScalePoint
{
    unsigned shards = 0;
    unsigned threads = 0;  ///< workers actually spawned
    double wallS = 0.0;    ///< measured run interval only
    double setupS = 0.0;   ///< construction/start incl. thread spawn
    double spawnS = 0.0;   ///< thread-spawn component of setup
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
    std::uint64_t mailboxMsgs = 0;
    double eventsPerSec = 0.0;
    double speedup = 1.0; ///< aggregate events/s vs. the 1-shard point
};

/**
 * Shard-count scaling sweep: the same 64-device open-system workload
 * at 1/2/4/8 shards. Only the runFor interval is measured — world
 * assembly, kernel start, and worker-pool spawn/join land in setup_s —
 * and the JSON records hardware_concurrency so numbers are comparable
 * across machines (on a single-core host the sweep measures windowing
 * overhead, not parallel speedup).
 */
std::vector<ScalePoint>
scaleSweep()
{
    std::vector<ScalePoint> pts;
    for (unsigned shards : {1u, 2u, 4u, 8u}) {
        ExperimentConfig cfg;
        cfg.sched = SchedKind::DisengagedFq;
        cfg.fleet.devices = 64;
        cfg.serve.slotsPerDevice = 2;
        cfg.serve.useGlobalClock = true;
        cfg.serve.clockPeriod = msec(10);
        cfg.measure = sec(1);
        cfg.shards.count = shards;

        WorkloadSpec w = WorkloadSpec::throttle(usec(430));
        w.label = "scale";
        const ServeWorkloadSpec spec{
            w, ArrivalSpec::poisson(400.0, msec(700)),
            LifetimeSpec::fixed(msec(200))};

        ScalePoint p;
        p.shards = shards;
        const auto c0 = Clock::now();
        ServeWorld world(cfg, {spec});
        world.start();
        p.setupS = secondsSince(c0);
        p.threads = world.shardCore.threadCount();
        p.spawnS = world.shardCore.setupSeconds();

        const auto t0 = Clock::now();
        world.runFor(cfg.measure);
        p.wallS = secondsSince(t0);

        p.events = world.eventsExecuted();
        p.windows = world.shardCore.windowsRun();
        p.mailboxMsgs = world.shardCore.mailboxMessages();
        p.eventsPerSec = static_cast<double>(p.events) / p.wallS;
        p.speedup =
            pts.empty() ? 1.0 : p.eventsPerSec / pts.front().eventsPerSec;

        const ServeRunResult res = world.results();
        if (res.departures == 0) {
            std::cerr << "perf_report: scale_sweep shards=" << shards
                      << " served no sessions\n";
            std::exit(2);
        }
        pts.push_back(p);
    }
    return pts;
}

void
emitCase(std::ostream &os, const char *name, const CaseResult &r,
         bool last = false)
{
    os << "    \"" << name << "\": {\n"
       << "      \"items\": " << r.items << ",\n"
       << "      \"wall_s\": " << r.wallS << ",\n"
       << "      \"events_per_sec\": " << r.itemsPerSec << ",\n"
       << "      \"peak_live_events\": " << r.peakLive << ",\n"
       << "      \"compactions\": " << r.compactions << "\n"
       << "    }" << (last ? "\n" : ",\n");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_simcore.json";
    double floor_eps = 0.0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--out" && i + 1 < argc) {
            out = argv[++i];
        } else if (arg == "--floor" && i + 1 < argc) {
            floor_eps = std::atof(argv[++i]);
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--out PATH] [--floor EVENTS_PER_SEC]\n";
            return 2;
        }
    }

    // Same workloads as the google-benchmark cases (shared via
    // simcore_cases.hh), at a larger batch size.
    constexpr double minS = 0.5;
    constexpr int batchN = 4096;
    std::cerr << "running schedule_run...\n";
    const CaseResult schedule_run = timeCase(minS, [](EventQueue &eq) {
        return neonbench::scheduleRunBatch(eq, batchN);
    });
    std::cerr << "running schedule_cancel_churn...\n";
    const CaseResult churn = timeCase(minS, [](EventQueue &eq) {
        return neonbench::scheduleCancelChurnBatch(eq, batchN);
    });
    std::cerr << "running fleet_interleave...\n";
    const CaseResult fleet = timeCase(minS, [](EventQueue &eq) {
        return neonbench::fleetInterleaveBatch(eq, 512);
    });
    std::cerr << "running open_system_churn...\n";
    const CaseResult churn_serve = timeCase(minS, [](EventQueue &eq) {
        return neonbench::openSystemChurnBatch(eq, batchN);
    });
    std::cerr << "running open_system_faulty...\n";
    const CaseResult faulty = timeCase(minS, [](EventQueue &eq) {
        return neonbench::openSystemFaultyBatch(eq, batchN);
    });
    std::cerr << "running open_system_shed...\n";
    const CaseResult shed = timeCase(minS, [](EventQueue &eq) {
        return neonbench::openSystemShedBatch(eq, batchN);
    });
    // Same workload with per-event SimCore tracing live, so the report
    // tracks what switching the trace plane on costs the hot loop. The
    // CI floor applies to the untraced case only.
    std::cerr << "running open_system_churn (tracing on)...\n";
    obs::TraceRecorder trace_ring(std::size_t(1) << 16);
    const CaseResult churn_traced = timeCase(minS, [&](EventQueue &eq) {
        obs::setTraceSink(
            &trace_ring,
            static_cast<std::uint32_t>(obs::TraceCategory::SimCore), &eq);
        return neonbench::openSystemChurnBatch(eq, batchN);
    });
    obs::setTraceSink(nullptr, 0);
    if (trace_ring.written() == 0) {
        std::cerr << "perf_report: traced churn recorded nothing\n";
        return 2;
    }
    // Same workload with the audit plane's per-event invariant checks
    // live, so the report tracks what the always-on auditor costs the
    // hot loop. The CI floor applies to the unaudited case only.
    std::cerr << "running open_system_churn (audit on)...\n";
    obs::AuditLog audit_log;
    const CaseResult churn_audited = timeCase(minS, [&](EventQueue &eq) {
        return neonbench::openSystemChurnAuditedBatch(eq, batchN,
                                                      audit_log);
    });
    if (audit_log.checks() == 0 || audit_log.violations() != 0) {
        std::cerr << "perf_report: audited churn checks="
                  << audit_log.checks() << " violations="
                  << audit_log.violations() << "\n";
        return 2;
    }
    std::cerr << "running end_to_end_dfq...\n";
    const EndToEnd e2e = endToEndDfq();
    std::cerr << "running end_to_end_serve...\n";
    const EndToEndServe serve = endToEndServe();
    std::cerr << "running scale_sweep...\n";
    const std::vector<ScalePoint> sweep = scaleSweep();

    std::ofstream os(out);
    if (!os) {
        std::cerr << "perf_report: cannot write " << out << "\n";
        return 2;
    }
    os << "{\n"
       << "  \"schema\": \"neon-simcore-bench-v1\",\n"
       << "  \"host\": {\n"
       << "    \"hardware_concurrency\": "
       << std::thread::hardware_concurrency() << "\n"
       << "  },\n"
       << "  \"cases\": {\n";
    emitCase(os, "schedule_run", schedule_run);
    emitCase(os, "schedule_cancel_churn", churn);
    emitCase(os, "fleet_interleave", fleet);
    emitCase(os, "open_system_churn", churn_serve);
    emitCase(os, "open_system_faulty", faulty);
    emitCase(os, "open_system_shed", shed);
    emitCase(os, "open_system_churn_traced", churn_traced);
    emitCase(os, "open_system_churn_audited", churn_audited,
             /*last=*/true);
    os << "  },\n"
       << "  \"end_to_end_dfq\": {\n"
       << "    \"sim_ms\": " << e2e.simMs << ",\n"
       << "    \"wall_s\": " << e2e.wallS << ",\n"
       << "    \"setup_s\": " << e2e.setupS << ",\n"
       << "    \"sim_ms_per_wall_s\": " << e2e.simMsPerWallS << ",\n"
       << "    \"events_executed\": " << e2e.events << ",\n"
       << "    \"peak_live_events\": " << e2e.peakLive << "\n"
       << "  },\n"
       << "  \"end_to_end_serve\": {\n"
       << "    \"sim_ms\": " << serve.simMs << ",\n"
       << "    \"wall_s\": " << serve.wallS << ",\n"
       << "    \"setup_s\": " << serve.setupS << ",\n"
       << "    \"sim_ms_per_wall_s\": " << serve.simMsPerWallS << ",\n"
       << "    \"sessions_served\": " << serve.sessions << ",\n"
       << "    \"sessions_per_wall_s\": " << serve.sessionsPerWallS
       << ",\n"
       << "    \"migrations\": " << serve.migrations << ",\n"
       << "    \"events_executed\": " << serve.events << "\n"
       << "  },\n"
       << "  \"scale_sweep\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const ScalePoint &p = sweep[i];
        os << "    {\n"
           << "      \"shards\": " << p.shards << ",\n"
           << "      \"threads\": " << p.threads << ",\n"
           << "      \"wall_s\": " << p.wallS << ",\n"
           << "      \"setup_s\": " << p.setupS << ",\n"
           << "      \"thread_spawn_s\": " << p.spawnS << ",\n"
           << "      \"events_executed\": " << p.events << ",\n"
           << "      \"windows\": " << p.windows << ",\n"
           << "      \"mailbox_messages\": " << p.mailboxMsgs << ",\n"
           << "      \"events_per_sec\": " << p.eventsPerSec << ",\n"
           << "      \"speedup_vs_1_shard\": " << p.speedup << "\n"
           << "    }" << (i + 1 < sweep.size() ? ",\n" : "\n");
    }
    os << "  ],\n"
       << "  \"floor_events_per_sec\": " << floor_eps << "\n"
       << "}\n";
    os.close();

    std::cout << "schedule_run:          " << schedule_run.itemsPerSec
              << " events/s\n"
              << "schedule_cancel_churn: " << churn.itemsPerSec
              << " ops/s (" << churn.compactions << " compactions)\n"
              << "fleet_interleave:      " << fleet.itemsPerSec
              << " events/s\n"
              << "open_system_churn:     " << churn_serve.itemsPerSec
              << " events/s\n"
              << "open_system_faulty:    " << faulty.itemsPerSec
              << " events/s\n"
              << "open_system_shed:      " << shed.itemsPerSec
              << " events/s\n"
              << "  ... tracing on:      " << churn_traced.itemsPerSec
              << " events/s (" << trace_ring.dropped() << " dropped)\n"
              << "  ... audit on:        " << churn_audited.itemsPerSec
              << " events/s (" << audit_log.checks() << " checks)\n"
              << "end_to_end_dfq:        " << e2e.simMsPerWallS
              << " sim-ms/wall-s\n"
              << "end_to_end_serve:      " << serve.simMsPerWallS
              << " sim-ms/wall-s (" << serve.sessions << " sessions, "
              << serve.migrations << " migrations)\n";
    for (const ScalePoint &p : sweep)
        std::cout << "scale_sweep shards=" << p.shards << " threads="
                  << p.threads << ": " << p.eventsPerSec << " events/s ("
                  << p.speedup << "x vs 1 shard, setup " << p.setupS
                  << " s)\n";
    std::cout << "wrote " << out << "\n";

    // The floor guards the raw event core and the serving-layer event
    // shape alike: both are pure EventQueue workloads, so an
    // order-of-magnitude regression in either fails the build.
    if (floor_eps > 0.0 && schedule_run.itemsPerSec < floor_eps) {
        std::cerr << "perf_report: schedule_run "
                  << schedule_run.itemsPerSec
                  << " events/s is below the floor of " << floor_eps
                  << "\n";
        return 1;
    }
    if (floor_eps > 0.0 && churn_serve.itemsPerSec < floor_eps) {
        std::cerr << "perf_report: open_system_churn "
                  << churn_serve.itemsPerSec
                  << " events/s is below the floor of " << floor_eps
                  << "\n";
        return 1;
    }
    // The control-plane front door (token bucket + shed prediction on
    // every arrival) rides under the same floor: admission control
    // must stay a per-arrival constant, not an event-core regression.
    if (floor_eps > 0.0 && shed.itemsPerSec < floor_eps) {
        std::cerr << "perf_report: open_system_shed "
                  << shed.itemsPerSec
                  << " events/s is below the floor of " << floor_eps
                  << "\n";
        return 1;
    }
    return 0;
}
