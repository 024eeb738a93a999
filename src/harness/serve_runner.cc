#include "harness/serve_runner.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "fleet/fleet_metrics.hh"
#include "sim/logging.hh"

namespace neon
{

namespace
{

/** Translate harness specs into serve-layer workload classes. */
std::vector<ServeClass>
classesFrom(const std::vector<ServeWorkloadSpec> &specs)
{
    std::vector<ServeClass> classes;
    classes.reserve(specs.size());
    for (const ServeWorkloadSpec &s : specs) {
        ServeClass c;
        c.label = s.workload.label;
        c.tenant = s.tenant.empty() ? s.workload.label : s.tenant;
        c.arrivals = s.arrivals;
        c.lifetime = s.lifetime;
        c.affinityKey = s.workload.affinityKey;
        c.demand = s.workload.demand;
        c.qos = s.qos;
        c.queueBudget = s.queueBudget;
        c.makeBody = [w = s.workload](Task &t, std::uint64_t seed) {
            return makeWorkloadBody(t, w, seed);
        };
        classes.push_back(std::move(c));
    }
    return classes;
}

} // namespace

std::size_t
resolveSlotsPerDevice(const ExperimentConfig &cfg)
{
    if (cfg.serve.slotsPerDevice > 0)
        return cfg.serve.slotsPerDevice;
    const std::size_t per_task =
        cfg.channelPolicy.perTaskLimit > 0 ? cfg.channelPolicy.perTaskLimit
                                           : 1;
    const std::size_t derived = cfg.device.maxChannels / per_task;
    return derived > 0 ? derived : 1;
}

const ServeSessionResult &
ServeRunResult::byLabel(const std::string &label) const
{
    for (const auto &s : sessions) {
        if (s.label == label)
            return s;
    }
    panic("no session labelled ", label, " in serve results");
}

ServeWorld::ServeWorld(const ExperimentConfig &cfg,
                       const std::vector<ServeWorkloadSpec> &specs)
    : World(cfg),
      engine(eq, fleet, cfg.serve, classesFrom(specs),
             resolveSlotsPerDevice(cfg), cfg.seed)
{
    if (observer)
        observer->attachServe(engine);
    if (cfg.observe.analyze.enabled()) {
        analyzer = std::make_unique<obs::Analyzer>(eq, fleet, engine,
                                                   cfg.observe.analyze);
        analyzer->start();
    }
    if (cfg.fault.plan.any()) {
        injector = std::make_unique<FaultInjector>(eq, fleet,
                                                   cfg.fault.plan,
                                                   cfg.seed);
    }
    if (auditor)
        obs::registerServeAudits(*auditor, engine, fleet);
}

ServeWorld::~ServeWorld() = default;

void
ServeWorld::start()
{
    World::start();
    engine.start();
    if (injector)
        injector->start();
}

ServeRunResult
ServeWorld::results()
{
    ServeRunResult r;
    r.elapsed = eq.now();
    r.arrivals = engine.arrivalsSeen();
    r.departures = engine.departures();
    r.kills = engine.killedSessions();
    r.migrations = engine.migrationCount();
    r.evictions = engine.evictedSessions();
    r.failovers = engine.failoverCount();
    r.shedSessions = engine.shedSessions();
    r.predictiveSheds = engine.predictiveSheds();
    r.throttledSessions = engine.throttledSessions();
    r.preemptions = engine.preemptionCount();
    r.peakLiveSessions = engine.peakLiveSessions();
    r.peakQueueDepth = engine.admissionState().peakPending();
    r.queuedAtEnd = engine.admissionState().pendingCount();
    r.capacity = engine.admissionState().capacity();
    r.deviceBusy = fleet.perDeviceBusy();
    r.deviceBalance = fleetDeviceBalance(r.deviceBusy);

    // Goodput against the configured SLO targets. The queue budget is
    // per class when set, so the bound an interactive session is
    // judged by is the one the shedder used at its front door.
    GoodputReport &gp = r.slo.goodput;
    gp.targeted = cfg.serve.slo.any();
    std::vector<GoodputReport> byClass(
        engine.workloadClasses().size());

    std::uint64_t interrupted = 0, recovered = 0;
    std::vector<double> queue_ms, sojourn_ms, turnaround_ms, rates;
    r.sessions = engine.sessionResults();
    for (const ServeSessionResult &s : r.sessions) {
        if (s.evictions > 0) {
            ++interrupted;
            // Recovered = resumed after every interruption and not
            // later dropped by shedding or a protection kill.
            if (s.failovers == s.evictions && !s.shed && !s.killed)
                ++recovered;
        }
        r.requests += s.requests;

        if (s.wasAdmitted()) {
            queue_ms.push_back(toMsec(s.admitted - s.arrived));

            const Tick end = s.hasDeparted() ? s.departed : eq.now();
            const Tick residency = end - s.admitted;
            if (!s.killed && residency > 0)
                rates.push_back(engine.serviceRate(s, s.busy, residency));
        }
        if (s.hasDeparted()) {
            sojourn_ms.push_back(toMsec(s.departed - s.admitted));
            turnaround_ms.push_back(toMsec(s.departed - s.arrived));
            if (!s.killed) {
                ++gp.eligible;
                ++byClass[s.cls].eligible;
                if (engine.meetsSlo(s.cls, s.arrived, s.admitted,
                                    s.departed)) {
                    ++gp.met;
                    ++byClass[s.cls].met;
                }
            }
        }
    }

    r.throughputRps = fleetThroughputRps(r.requests, r.elapsed);
    r.serviceFairness = jainIndex(rates);
    r.slo.queueDelayMs = summarizeLatencies(std::move(queue_ms));
    r.slo.sojournMs = summarizeLatencies(std::move(sojourn_ms));
    r.slo.turnaroundMs = summarizeLatencies(std::move(turnaround_ms));
    r.recoveryRate = interrupted > 0
        ? static_cast<double>(recovered) / static_cast<double>(interrupted)
        : 1.0;
    gp.fraction = gp.eligible > 0
        ? static_cast<double>(gp.met) / static_cast<double>(gp.eligible)
        : 1.0;
    for (std::size_t c = 0; c < byClass.size(); ++c) {
        GoodputReport &g = byClass[c];
        g.targeted = gp.targeted || engine.queueBudgetOf(c) > 0;
        g.fraction = g.eligible > 0
            ? static_cast<double>(g.met) / static_cast<double>(g.eligible)
            : 1.0;
        r.slo.goodputByClass.push_back(
            {engine.workloadClasses()[c].label, g});
    }

    AvailabilityReport &f = r.fault;
    f.watchdogHangKills = fleet.watchdogHangKills();
    f.watchdogRunawayKills = fleet.watchdogRunawayKills();
    const std::uint64_t wd_kills =
        f.watchdogHangKills + f.watchdogRunawayKills;
    const std::uint64_t all_kills = fleet.totalKills();
    f.schedulerKills = all_kills >= wd_kills ? all_kills - wd_kills : 0;
    f.recoveredSessions = recovered;

    if (injector) {
        f.injectedDeaths = injector->injectedDeaths();
        f.injectedStalls = injector->injectedStalls();
        f.injectedHangs = injector->injectedHangs();
        f.skippedInjections = injector->skipped();
        f.repairs = injector->repairs();

        // Match each injected hang to the first unconsumed watchdog
        // kill of the same victim at or after the injection; the match
        // gap is the detection latency.
        const std::vector<WatchdogKill> kills = fleet.watchdogKillLog();
        std::vector<char> used(kills.size(), 0);
        double mttd_sum = 0.0;
        for (HangRecord &h : injector->hangs()) {
            for (std::size_t i = 0; i < kills.size(); ++i) {
                if (used[i] || kills[i].device != h.device ||
                    kills[i].pid != h.pid || kills[i].at < h.at)
                    continue;
                used[i] = 1;
                h.detected = true;
                ++f.detectedHangs;
                mttd_sum += toMsec(kills[i].at - h.at);
                break;
            }
        }
        if (f.detectedHangs > 0)
            f.mttdMs = mttd_sum / static_cast<double>(f.detectedHangs);

        // Downtime: completed outages by their repair, open ones
        // clamped at the horizon.
        Tick down_total = 0;
        double mttr_sum = 0.0;
        std::uint64_t completed_outages = 0;
        for (const OutageRecord &o : injector->outages()) {
            const Tick up = o.upAt >= 0 ? o.upAt : eq.now();
            down_total += up - o.downAt;
            if (o.upAt >= 0) {
                mttr_sum += toMsec(o.upAt - o.downAt);
                ++completed_outages;
            }
        }
        if (completed_outages > 0)
            f.mttrMs =
                mttr_sum / static_cast<double>(completed_outages);
        const double device_time = static_cast<double>(eq.now()) *
            static_cast<double>(fleet.deviceCount());
        if (device_time > 0.0) {
            f.availability =
                1.0 - static_cast<double>(down_total) / device_time;
        }
    }

    if (analyzer) {
        analyzer->finalize();
        r.sessionPhases = analyzer->sessionPhases();
        if (analyzer->config().phases)
            r.phases = analyzer->phaseReport();
        r.timeline = analyzer->timeline();
    }
    if (auditor) {
        auditor->finalize();
        r.audit = auditor->report();
    }
    if (observer)
        r.traceDrops = observer->droppedRecords();
    return r;
}

ServeRunResult
ServeRunner::run(const std::vector<ServeWorkloadSpec> &specs,
                 bool with_slowdowns) const
{
    ServeWorld world(cfg, specs);
    world.start();
    world.runFor(cfg.measure);
    ServeRunResult r = world.results();
    if (world.observer) {
        world.observer->writeOutputs();
        r.observeSummary = world.observer->summary();
    }
    if (world.analyzer)
        world.analyzer->writeOutputs();

    if (with_slowdowns) {
        // Per-class isolated baseline: the workload alone on one
        // template-speed device under direct access (the paper's
        // normalization basis), reused for every session of the class.
        ExperimentConfig solo_cfg = cfg;
        solo_cfg.warmup = msec(100);
        solo_cfg.measure = msec(500);

        ExperimentRunner solo(solo_cfg);

        std::map<std::size_t, double> solo_round;
        std::vector<double> slowdowns;
        for (const ServeSessionResult &s : r.sessions) {
            if (!s.hasDeparted() || s.killed || s.rounds == 0)
                continue;
            auto it = solo_round.find(s.cls);
            if (it == solo_round.end()) {
                it = solo_round
                         .emplace(s.cls,
                                  solo.soloRoundUs(specs[s.cls].workload))
                         .first;
            }
            if (it->second > 0.0)
                slowdowns.push_back(s.meanRoundUs() / it->second);
        }
        r.slo.slowdown = summarizeLatencies(std::move(slowdowns));
    }
    return r;
}

} // namespace neon
