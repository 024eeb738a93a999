/**
 * @file
 * Acceptance tests for the analysis plane: phase attribution must
 * exactly partition every session's in-system time — across
 * migrations, device death, failover, retry backoff, watchdog kills,
 * throttling, predictive shedding, and QoS preemption — a single
 * whole-run window must reproduce the final service
 * fairness index bit-for-bit, the windowed timeline must be
 * deterministic across repeats and worker-thread counts, and replaying
 * an exported trace must reproduce the in-process attribution. The
 * session steps' trace records are pinned by digest, and the events
 * replayed from them must equal the engine's live event stream.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "harness/serve_runner.hh"

namespace neon
{
namespace
{

using namespace obs;

/**
 * The fault-integration scenario: a 4-device fleet at 2.5x
 * oversubscription with a scripted stall, two channel hangs (watchdog
 * kills), and a repaired device death (evictions + failover) — every
 * lifecycle transition the phase state machine has to handle.
 */
ExperimentConfig
faultyScenarioConfig()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.dfq.killThreshold = sec(30); // kills below are the watchdog's
    cfg.fleet.devices = 4;
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(25);
    cfg.measure = sec(4);

    cfg.fault.watchdog.enabled = true;
    cfg.fault.watchdog.checkPeriod = msec(2);
    cfg.fault.watchdog.hangTimeout = msec(20);
    cfg.fault.watchdog.runawayTimeout = 0;

    cfg.fault.plan.script = {
        {msec(150), FaultKind::DeviceStall, 0, msec(10)},
        {msec(300), FaultKind::ChannelHang, 2, 0},
        {msec(350), FaultKind::ChannelHang, 3, 0},
        {msec(600), FaultKind::DeviceDeath, 1, msec(300)},
    };
    return cfg;
}

std::vector<ServeWorkloadSpec>
faultyScenarioSpecs()
{
    std::vector<Tick> arrivals;
    for (int i = 0; i < 20; ++i)
        arrivals.push_back(i * msec(25));
    WorkloadSpec w = WorkloadSpec::throttle(usec(300));
    w.label = "sess";
    return {
        {w, ArrivalSpec::trace(arrivals), LifetimeSpec::fixed(sec(1))},
    };
}

/**
 * The control-plane scenario: an interactive and a batch tenant
 * oversubscribing a 4-device fleet with per-tenant token buckets,
 * predictive shedding, and QoS preemption on — the throttle, shed,
 * and preempt/requeue/resume transitions.
 */
ExperimentConfig
controlScenarioConfig()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 4;
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(25);
    cfg.measure = sec(1);

    // The interactive tenant offers 200/s against a 150/s bucket, and
    // what passes (~9 slot-equivalents) still overloads the 8 slots
    // on its own, so interactive arrivals queue behind each other and
    // get shed as well as preempting batch sessions.
    cfg.serve.rateLimit.ratePerSec = 150.0;
    cfg.serve.rateLimit.burst = 3.0;
    cfg.serve.shed.enabled = true;
    cfg.serve.qos.enabled = true;
    cfg.serve.qos.preemption = true;
    cfg.serve.qos.preemptionBackoff = msec(5);
    return cfg;
}

std::vector<ServeWorkloadSpec>
controlScenarioSpecs()
{
    WorkloadSpec batch = WorkloadSpec::throttle(usec(400));
    batch.label = "batch";
    WorkloadSpec inter = WorkloadSpec::throttle(usec(150), 0.3);
    inter.label = "inter";
    ServeWorkloadSpec sb{batch, ArrivalSpec::poisson(60.0, msec(800)),
                         LifetimeSpec::fixed(msec(150))};
    sb.qos = QosClass::Batch;
    ServeWorkloadSpec si{inter, ArrivalSpec::poisson(200.0, msec(800)),
                         LifetimeSpec::exponential(msec(60))};
    si.qos = QosClass::Interactive;
    si.queueBudget = msec(10);
    return {sb, si};
}

/** One analysis input: a serving config and its workload classes. */
struct Scenario
{
    const char *name;
    bool control; ///< the control-plane scenario (else a fault one)
    ExperimentConfig cfg;
    std::vector<ServeWorkloadSpec> specs;
};

std::vector<Scenario>
scenarios()
{
    return {
        {"faults", false, faultyScenarioConfig(), faultyScenarioSpecs()},
        {"control", true, controlScenarioConfig(), controlScenarioSpecs()},
    };
}

/**
 * The analysis scenarios plus an outage: a one-device fleet whose
 * device dies for 10 s under both of its sessions, so each spends its
 * retry budget on the hopeless fleet and is shed. Together they take
 * every traced session step.
 */
std::vector<Scenario>
lifecycleScenarios()
{
    std::vector<Scenario> out = scenarios();
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 1;
    cfg.serve.slotsPerDevice = 2;
    cfg.measure = msec(500);
    cfg.fault.plan.script = {
        {msec(100), FaultKind::DeviceDeath, 0, sec(10)},
    };
    WorkloadSpec w = WorkloadSpec::throttle(usec(300));
    w.label = "sess";
    out.push_back({"outage", false, cfg,
                   {{w, ArrivalSpec::trace({0, msec(10)}),
                     LifetimeSpec::fixed(sec(1))}}});
    return out;
}

/** Run @p world over @p sc's horizon; its capture must drop nothing. */
void
runCaptured(const Scenario &sc, ServeWorld &world)
{
    world.start();
    world.runFor(sc.cfg.measure);
    ASSERT_NE(world.observer, nullptr);
    ASSERT_EQ(world.observer->droppedRecords(), 0u);
}

/** FNV-1a over every field of each record, the name by its string. */
std::uint64_t
recordDigest(const std::vector<TraceRecord> &records)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    };
    for (const TraceRecord &r : records) {
        const std::string &name = traceNameOf(r.name);
        mix(name.c_str(), name.size() + 1);
        for (const std::int64_t v :
             {std::int64_t{r.when}, std::int64_t{r.cat},
              static_cast<std::int64_t>(r.kind), std::int64_t{r.device},
              std::int64_t{r.pid}, std::int64_t{r.session}, r.arg0,
              r.arg1})
            mix(&v, sizeof v);
    }
    return h;
}

TEST(Analyze, LifecycleRecordsKeepTheirDigests)
{
    // Every Serve, Fault and Fleet record (time, name, category, kind,
    // ids, args), in capture order, digested per scenario: however the
    // engine writes its session steps, it writes these records in this
    // order.
    struct Want
    {
        const char *scenario;
        std::size_t records;
        std::uint64_t digest;
    };
    const std::vector<Want> want = {
        {"faults", 647, 0x14dabf27b99dce42ull},
        {"control", 1950, 0xcd2a19189095581bull},
        {"outage", 30, 0x8d34b797f2344219ull},
    };
    std::set<std::string> steps;
    const std::vector<Scenario> all = lifecycleScenarios();
    ASSERT_EQ(all.size(), want.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        Scenario sc = all[i];
        SCOPED_TRACE(sc.name);
        sc.cfg.observe.categories =
            static_cast<std::uint32_t>(TraceCategory::Serve) |
            static_cast<std::uint32_t>(TraceCategory::Fault) |
            static_cast<std::uint32_t>(TraceCategory::Fleet);
        sc.cfg.observe.bufferCapacity = std::size_t(1) << 20;
        ServeWorld world(sc.cfg, sc.specs);
        ASSERT_NO_FATAL_FAILURE(runCaptured(sc, world));
        const std::vector<TraceRecord> records =
            world.observer->mergedRecords();
        for (const TraceRecord &r : records) {
            const std::string &name = traceNameOf(r.name);
            if (name.rfind("serve.", 0) == 0 ||
                (name == "session" && r.kind == TraceKind::AsyncBegin))
                steps.insert(name);
        }
        EXPECT_STREQ(sc.name, want[i].scenario);
        EXPECT_EQ(records.size(), want[i].records);
        EXPECT_EQ(recordDigest(records), want[i].digest)
            << std::hex << "0x" << recordDigest(records);
    }

    // The three scenarios take every traced session step.
    for (const char *step :
         {"session", "serve.admit", "serve.failover",
          "serve.preempt_resume", "serve.migrate", "serve.evict",
          "serve.retry_arrive", "serve.preempt_requeue", "serve.depart",
          "serve.session_killed", "serve.shed", "serve.shed_predicted",
          "serve.throttle", "serve.preempt"})
        EXPECT_EQ(steps.count(step), 1u) << step;
}

TEST(Analyze, ReplayedStreamEqualsLiveStream)
{
    // A listener's SessionEvents and the events rebuilt from the same
    // run's records export are one stream: same length, and equal
    // field for field (kind, time, session, device, class).
    for (Scenario &sc : lifecycleScenarios()) {
        SCOPED_TRACE(sc.name);
        sc.cfg.observe.categories = defaultTraceCategories;
        sc.cfg.observe.bufferCapacity = std::size_t(1) << 20;
        sc.cfg.observe.recordsJsonlPath = ::testing::TempDir() +
            "lifecycle_stream_" + sc.name + ".jsonl";

        ServeWorld world(sc.cfg, sc.specs);
        std::vector<SessionEvent> live;
        world.engine.addSessionListener(
            [&live](const SessionEvent &e) { live.push_back(e); });
        ASSERT_NO_FATAL_FAILURE(runCaptured(sc, world));
        world.observer->writeOutputs();

        std::ifstream in(sc.cfg.observe.recordsJsonlPath);
        ASSERT_TRUE(in) << sc.cfg.observe.recordsJsonlPath;
        const std::vector<SessionEvent> replayed =
            sessionEventsFromJsonl(in);
        in.close();
        std::remove(sc.cfg.observe.recordsJsonlPath.c_str());

        ASSERT_FALSE(live.empty());
        ASSERT_EQ(replayed.size(), live.size());
        std::size_t mismatches = 0;
        for (std::size_t i = 0; i < live.size(); ++i) {
            const SessionEvent &a = live[i];
            const SessionEvent &b = replayed[i];
            if (a.kind == b.kind && a.when == b.when &&
                a.session == b.session && a.device == b.device &&
                a.cls == b.cls)
                continue;
            if (++mismatches <= 3) {
                ADD_FAILURE()
                    << "event " << i << ": live kind "
                    << static_cast<int>(a.kind) << " when " << a.when
                    << " session " << a.session << " device " << a.device
                    << " class " << a.cls << ", replayed kind "
                    << static_cast<int>(b.kind) << " when " << b.when
                    << " session " << b.session << " device " << b.device
                    << " class " << b.cls;
            }
        }
        EXPECT_EQ(mismatches, 0u) << "of " << live.size() << " events";
    }
}

TEST(Analyze, PhasePartitionExactUnderScriptedFaults)
{
    for (Scenario &sc : scenarios()) {
        SCOPED_TRACE(sc.name);
        ExperimentConfig &cfg = sc.cfg;
        cfg.observe.analyze.phases = true;
        // One window spanning the whole run: its fairness must reduce
        // to the final whole-run index.
        cfg.observe.analyze.window = 2 * cfg.measure;
        cfg.serve.slo.sojournTarget = sec(2);

        ServeWorld world(cfg, sc.specs);
        world.start();
        world.runFor(cfg.measure);
        const ServeRunResult r = world.results();

        // The scenario exercised every transition the tracker models.
        if (sc.control) {
            ASSERT_GT(r.throttledSessions, 0u);
            ASSERT_GT(r.predictiveSheds, 0u);
            ASSERT_GT(r.preemptions, 0u);
        } else {
            ASSERT_EQ(r.arrivals, 20u);
            ASSERT_EQ(r.kills, 2u);
            ASSERT_GE(r.evictions, 1u);
            ASSERT_GE(r.migrations, 1u);
        }

        // Exact partition: queue + service + migration + stall covers
        // the arrival-to-end interval of every session, in integer
        // ticks.
        ASSERT_EQ(r.sessionPhases.size(), r.sessions.size());
        for (const SessionPhases &s : r.sessionPhases) {
            EXPECT_EQ(s.phases.total(), s.inSystem())
                << "session " << s.session;
            EXPECT_GE(s.phases.queue, 0);
            EXPECT_GE(s.phases.service, 0);
            EXPECT_GE(s.phases.migration, 0);
            EXPECT_GE(s.phases.stall, 0);

            // The ledger agrees with the harness's own session results.
            const ServeSessionResult &ref = r.sessions[s.session];
            EXPECT_EQ(s.arrived, ref.arrived);
            EXPECT_EQ(s.admitted, ref.admitted);
            EXPECT_EQ(s.killed, ref.killed);
            EXPECT_EQ(s.shed, ref.shed);
            EXPECT_EQ(s.throttled, ref.throttled);
            // The ledger stamps a departure time for kills too; the
            // tracker's departed flag means a clean departure.
            EXPECT_EQ(s.departed, ref.hasDeparted() && !ref.killed);
            if (ref.hasDeparted()) {
                EXPECT_EQ(s.ended, ref.departed);
                EXPECT_GT(s.phases.service, 0);
            }
            // A device-death eviction, like a preemption, forces a
            // backoff interval before the session re-queues:
            // attributed to the stall phase.
            if (ref.evictions > 0 || ref.preemptions > 0) {
                EXPECT_GT(s.phases.stall, 0) << "session " << s.session;
            }
        }

        // Queue time is bounded by in-system time, and at least one
        // oversubscribed session waited.
        Tick total_queue = 0;
        for (const SessionPhases &s : r.sessionPhases)
            total_queue += s.phases.queue;
        EXPECT_GT(total_queue, 0);

        // Whole-run window: event counts match the run, the fairness
        // index is the final one bit-for-bit, and goodput agrees with
        // the SLO report.
        ASSERT_EQ(r.timeline.size(), 1u);
        const WindowStats &w = r.timeline.front();
        EXPECT_EQ(w.start, 0);
        EXPECT_EQ(w.arrivals, r.arrivals);
        EXPECT_EQ(w.departures, r.departures);
        EXPECT_EQ(w.kills, r.kills);
        EXPECT_EQ(w.sheds, r.shedSessions);
        EXPECT_EQ(w.throttled, r.throttledSessions);
        EXPECT_EQ(w.preempts, r.preemptions);
        EXPECT_DOUBLE_EQ(w.fairness, r.serviceFairness);
        EXPECT_TRUE(r.slo.goodput.targeted);
        EXPECT_EQ(w.goodputEligible, r.slo.goodput.eligible);
        EXPECT_EQ(w.goodputMet, r.slo.goodput.met);
        ASSERT_EQ(w.deviceUtil.size(), 4u);
        ASSERT_EQ(w.occupancy.size(), 4u);
        for (double u : w.deviceUtil) {
            EXPECT_GE(u, 0.0);
            EXPECT_LE(u, 1.0);
        }

        // The tail report groups each tenant/class coherently: one
        // group per workload class, together covering every session.
        EXPECT_EQ(r.phases.overall.sessions, r.arrivals);
        ASSERT_EQ(r.phases.byTenant.size(), sc.specs.size());
        ASSERT_EQ(r.phases.byClass.size(), sc.specs.size());
        std::uint64_t by_tenant = 0, by_class = 0;
        for (std::size_t g = 0; g < sc.specs.size(); ++g) {
            by_tenant += r.phases.byTenant[g].sessions;
            by_class += r.phases.byClass[g].sessions;
        }
        EXPECT_EQ(by_tenant, r.arrivals);
        EXPECT_EQ(by_class, r.arrivals);
        EXPECT_FALSE(r.phases.overall.dominantPhase.empty());

        // The always-on auditor rode along and found nothing.
        EXPECT_GT(r.audit.checks, 0u);
        EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
    }
}

TEST(Analyze, TraceReplayMatchesDirectAttribution)
{
    // Recording the run to the raw-record JSONL export and replaying
    // it, as bench_trace_analyze does, through a fresh PhaseTracker
    // must reproduce the in-process attribution exactly (the capture
    // is sized to be drop-free).
    for (Scenario &sc : scenarios()) {
        SCOPED_TRACE(sc.name);
        ExperimentConfig &cfg = sc.cfg;
        cfg.observe.analyze.phases = true;
        cfg.observe.categories = defaultTraceCategories;
        cfg.observe.bufferCapacity = std::size_t(1) << 20;
        cfg.observe.recordsJsonlPath =
            ::testing::TempDir() + "analyze_replay_" + sc.name + ".jsonl";

        ServeWorld world(cfg, sc.specs);
        world.start();
        world.runFor(cfg.measure);
        const ServeRunResult r = world.results();
        ASSERT_NE(world.observer, nullptr);
        ASSERT_EQ(r.traceDrops, 0u) << "capture must be exact for replay";
        world.observer->writeOutputs();

        std::ifstream in(cfg.observe.recordsJsonlPath);
        ASSERT_TRUE(in) << cfg.observe.recordsJsonlPath;
        const std::vector<SessionEvent> events = sessionEventsFromJsonl(in);
        in.close();
        std::remove(cfg.observe.recordsJsonlPath.c_str());
        ASSERT_FALSE(events.empty());

        PhaseTracker replay;
        for (const SessionEvent &e : events)
            replay.onEvent(e);
        replay.finalize(cfg.measure);

        ASSERT_EQ(replay.sessions().size(), r.sessionPhases.size());
        for (std::size_t i = 0; i < replay.sessions().size(); ++i) {
            const SessionPhases &a = replay.sessions()[i];
            const SessionPhases &b = r.sessionPhases[i];
            EXPECT_EQ(a.arrived, b.arrived) << "session " << i;
            EXPECT_EQ(a.admitted, b.admitted) << "session " << i;
            EXPECT_EQ(a.ended, b.ended) << "session " << i;
            EXPECT_EQ(a.departed, b.departed) << "session " << i;
            EXPECT_EQ(a.killed, b.killed) << "session " << i;
            EXPECT_EQ(a.shed, b.shed) << "session " << i;
            EXPECT_EQ(a.throttled, b.throttled) << "session " << i;
            EXPECT_EQ(a.open, b.open) << "session " << i;
            EXPECT_EQ(a.cls, b.cls) << "session " << i;
            EXPECT_EQ(a.phases.queue, b.phases.queue) << "session " << i;
            EXPECT_EQ(a.phases.service, b.phases.service)
                << "session " << i;
            EXPECT_EQ(a.phases.migration, b.phases.migration)
                << "session " << i;
            EXPECT_EQ(a.phases.stall, b.phases.stall) << "session " << i;
        }
    }
}

TEST(Analyze, ShardedTimelineDeterministicAcrossRepeatsAndThreads)
{
    // The windowed series is part of the simulation's deterministic
    // output: bit-identical CSV across repeats and across worker-thread
    // counts at a fixed shard count.
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 8;
    cfg.fleet.speedFactors = {1.4, 1.0, 0.6, 1.0, 1.2, 0.8, 1.0, 1.0};
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(15);
    cfg.serve.migrationMinTasks = 1;
    cfg.serve.slo.sojournTarget = msec(300);
    cfg.measure = sec(1);
    cfg.shards.count = 2;
    cfg.observe.analyze.phases = true;
    cfg.observe.analyze.window = msec(100);

    WorkloadSpec heavy = WorkloadSpec::throttle(usec(400));
    heavy.label = "heavy";
    WorkloadSpec light = WorkloadSpec::throttle(usec(150), 0.3);
    light.label = "light";
    const std::vector<ServeWorkloadSpec> specs = {
        {heavy, ArrivalSpec::poisson(30.0, msec(600)),
         LifetimeSpec::fixed(msec(120))},
        {light, ArrivalSpec::poisson(50.0, msec(600)),
         LifetimeSpec::exponential(msec(80))},
    };

    const auto run_csv = [&](unsigned threads) {
        ExperimentConfig c = cfg;
        c.shards.threads = threads;
        ServeWorld world(c, specs);
        world.start();
        world.runFor(c.measure);
        const ServeRunResult r = world.results();
        // The partition invariant holds in sharded runs too.
        for (const SessionPhases &s : r.sessionPhases)
            EXPECT_EQ(s.phases.total(), s.inSystem());
        EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
        return world.analyzer->timelineCsv();
    };

    const std::string base = run_csv(1);
    ASSERT_GT(base.size(), 100u);
    EXPECT_EQ(run_csv(1), base); // repeat, same shape
    EXPECT_EQ(run_csv(2), base); // more workers, same series
}

TEST(Analyze, PhaseTrackerChargesTransitionsExactly)
{
    // Synthetic lifecycle walking every state: arrive -> admit ->
    // evict -> retry backoff -> failover -> migrate -> depart.
    PhaseTracker t;
    const auto ev = [](SessionEvent::Kind k, Tick when,
                       std::uint64_t sess = 0) {
        SessionEvent e;
        e.kind = k;
        e.when = when;
        e.session = sess;
        return e;
    };

    t.onEvent(ev(SessionEvent::Kind::Arrive, 0));
    t.onEvent(ev(SessionEvent::Kind::Admit, 10));
    t.onEvent(ev(SessionEvent::Kind::Evict, 30));
    t.onEvent(ev(SessionEvent::Kind::RetryEnqueue, 35));
    t.onEvent(ev(SessionEvent::Kind::Admit, 40)); // failover
    t.onEvent(ev(SessionEvent::Kind::Migrate, 60));
    t.onEvent(ev(SessionEvent::Kind::Depart, 100));

    // A second session that never gets admitted before the horizon.
    t.onEvent(ev(SessionEvent::Kind::Arrive, 50, 1));
    t.finalize(120);

    ASSERT_EQ(t.sessions().size(), 2u);
    const SessionPhases &a = t.sessions()[0];
    EXPECT_EQ(a.phases.queue, 15);   // 0..10 arrival wait + 35..40 retry
    EXPECT_EQ(a.phases.service, 80); // 10..30 + 40..100 (migrate instant)
    EXPECT_EQ(a.phases.stall, 5);    // 30..35 eviction backoff
    EXPECT_EQ(a.phases.migration, 0);
    EXPECT_EQ(a.phases.total(), a.inSystem());
    EXPECT_TRUE(a.departed);
    EXPECT_FALSE(a.open);
    EXPECT_EQ(a.admitted, 10);

    const SessionPhases &b = t.sessions()[1];
    EXPECT_TRUE(b.open);
    EXPECT_EQ(b.admitted, -1);
    EXPECT_EQ(b.phases.queue, 70); // charged up to the horizon
    EXPECT_EQ(b.ended, 120);
    EXPECT_EQ(b.phases.total(), b.inSystem());

    // finalize is idempotent: a second pass charges nothing more.
    t.finalize(200);
    EXPECT_EQ(t.sessions()[1].phases.queue, 70);
}

TEST(Analyze, PhaseReportAttributesQueueDominatedTail)
{
    // Hand-built population: most sessions are service-dominated, the
    // slowest 10% sit in queue — the tail report must say so.
    std::vector<SessionPhases> pop;
    for (int i = 0; i < 90; ++i) {
        SessionPhases s;
        s.session = static_cast<std::uint64_t>(i);
        s.arrived = 0;
        s.ended = msec(100);
        s.phases.queue = msec(10);
        s.phases.service = msec(90);
        s.departed = true;
        pop.push_back(s);
    }
    for (int i = 90; i < 100; ++i) {
        SessionPhases s;
        s.session = static_cast<std::uint64_t>(i);
        s.arrived = 0;
        s.ended = msec(500);
        s.phases.queue = msec(450);
        s.phases.service = msec(50);
        s.departed = true;
        pop.push_back(s);
    }

    const auto one = [](const SessionPhases &) { return std::string("t"); };
    const PhaseReport rep = buildPhaseReport(pop, one, one);
    EXPECT_EQ(rep.overall.sessions, 100u);
    EXPECT_EQ(rep.overall.dominantPhase, "queue");
    EXPECT_GT(rep.overall.tailShare.queue, rep.overall.tailShare.service);
    // The body of the population is still service-dominated on average.
    EXPECT_GT(rep.overall.meanShare.service, rep.overall.meanShare.queue);
    EXPECT_GE(rep.overall.p99Ms, rep.overall.p95Ms);
    EXPECT_GE(rep.overall.p95Ms, rep.overall.meanMs);

    const std::string text = formatPhaseReport(rep);
    EXPECT_NE(text.find("queue"), std::string::npos);
}

} // namespace
} // namespace neon
