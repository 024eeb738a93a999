#include "harness/experiment.hh"

#include <utility>

#include "metrics/reporter.hh"
#include "sched/direct.hh"
#include "sched/disengaged_timeslice.hh"
#include "sim/logging.hh"
#include "workload/synthetic_app.hh"

namespace neon
{

const std::vector<SchedKind> paperSchedulers = {
    SchedKind::Direct,
    SchedKind::Timeslice,
    SchedKind::DisengagedTimeslice,
    SchedKind::DisengagedFq,
};

std::string
schedKindName(SchedKind k)
{
    switch (k) {
      case SchedKind::Direct:
        return "direct";
      case SchedKind::Timeslice:
        return "timeslice";
      case SchedKind::DisengagedTimeslice:
        return "disengaged-ts";
      case SchedKind::DisengagedFq:
        return "disengaged-fq";
      case SchedKind::EngagedFq:
        return "engaged-fq";
    }
    return "?";
}

WorkloadSpec
WorkloadSpec::app(const std::string &profile_name)
{
    WorkloadSpec s;
    s.kind = Kind::Profile;
    s.profileName = profile_name;
    s.label = profile_name;
    return s;
}

WorkloadSpec
WorkloadSpec::throttle(Tick request_size, double sleep_ratio)
{
    WorkloadSpec s;
    s.kind = Kind::Throttle;
    s.throttleParams.requestSize = request_size;
    s.throttleParams.sleepRatio = sleep_ratio;
    // Built with += (not operator+ chains): GCC 12's inliner emits
    // false-positive -Wrestrict warnings for temporary-concat chains
    // at some call sites.
    s.label = "Throttle(";
    s.label += Table::num(toUsec(request_size), 0);
    s.label += "us";
    if (sleep_ratio > 0.0) {
        s.label += ",";
        s.label += Table::num(100.0 * sleep_ratio, 0);
        s.label += "%off";
    }
    s.label += ")";
    return s;
}

WorkloadSpec
WorkloadSpec::custom(std::string label,
                     std::function<Co(Task &, std::uint64_t)> body)
{
    WorkloadSpec s;
    s.kind = Kind::Custom;
    s.label = std::move(label);
    s.customBody = std::move(body);
    return s;
}

const TaskResult &
RunResult::byLabel(const std::string &label) const
{
    for (const auto &t : tasks) {
        if (t.label == label)
            return t;
    }
    panic("no task labelled ", label, " in results");
}

std::unique_ptr<Scheduler>
makeScheduler(const ExperimentConfig &cfg, KernelModule &kernel,
              const UsageMeter *vendor_counters)
{
    std::unique_ptr<Scheduler> sched;
    switch (cfg.sched) {
      case SchedKind::Direct:
        sched = std::make_unique<DirectScheduler>(kernel);
        break;
      case SchedKind::Timeslice:
        sched =
            std::make_unique<TimesliceScheduler>(kernel, cfg.timeslice);
        break;
      case SchedKind::DisengagedTimeslice:
        sched =
            std::make_unique<DisengagedTimeslice>(kernel, cfg.timeslice);
        break;
      case SchedKind::DisengagedFq: {
        auto dfq = std::make_unique<DisengagedFairQueueing>(kernel, cfg.dfq);
        dfq->setVendorCounters(vendor_counters); // DeviceCounters mode
        sched = std::move(dfq);
        break;
      }
      case SchedKind::EngagedFq:
        sched =
            std::make_unique<EngagedFairQueueing>(kernel, cfg.engagedFq);
        break;
    }
    if (!sched)
        panic("unknown scheduler kind");
    return sched;
}

Co
makeWorkloadBody(Task &t, const WorkloadSpec &spec, std::uint64_t seed)
{
    switch (spec.kind) {
      case WorkloadSpec::Kind::Profile:
        return syntheticAppBody(t, AppRegistry::byName(spec.profileName),
                                seed);
      case WorkloadSpec::Kind::Throttle:
        return throttleBody(t, spec.throttleParams, seed);
      case WorkloadSpec::Kind::Custom:
        return spec.customBody(t, seed);
    }
    panic("unknown workload kind");
}

Tick
resolveShardWindow(const ExperimentConfig &cfg)
{
    if (cfg.shards.window > 0)
        return cfg.shards.window;
    Tick w = cfg.pollPeriod > 0 ? cfg.pollPeriod : msec(1);
    if (cfg.serve.clockPeriod > 0)
        w = std::min(w, cfg.serve.clockPeriod);
    return std::max<Tick>(w, usec(100));
}

namespace
{

/** Deterministic per-task seed derivation (spawn order @p i). */
std::uint64_t
taskSeed(const ExperimentConfig &cfg, std::size_t i)
{
    return cfg.seed * 0x9e3779b9u + 0x1000 * (i + 1);
}

/** cfg.shards with the window grid resolved (parallel runs only). */
ShardConfig
resolvedShards(const ExperimentConfig &cfg)
{
    ShardConfig s = cfg.shards;
    if (s.parallel())
        s.window = resolveShardWindow(cfg);
    return s;
}

} // namespace

World::World(const ExperimentConfig &cfg)
    : shardCore(resolvedShards(cfg), eq, cfg.fleet.devices),
      fleet(shardCore, cfg.fleet, cfg.device, cfg.costs,
            cfg.channelPolicy, cfg.pollPeriod,
            [&cfg](KernelModule &kernel, const UsageMeter &meter,
                   std::size_t) {
                return makeScheduler(cfg, kernel, &meter);
            }),
      cfg(cfg)
{
    if (cfg.collectTraces) {
        for (std::size_t i = 0; i < fleet.deviceCount(); ++i) {
            traces.push_back(std::make_unique<RequestTrace>());
            traces.back()->attach(fleet.stack(i).device);
        }
    }
    if (cfg.observe.enabled()) {
        observer = std::make_unique<obs::Observer>(eq, cfg.observe);
        observer->attachFleet(fleet);
        observer->attachShards(shardCore);
        observer->start();
    }
    if (cfg.fault.watchdog.enabled)
        fleet.enableWatchdog(cfg.fault.watchdog);
    if (cfg.observe.audit.enabled) {
        auditor = std::make_unique<obs::Auditor>(eq);
        obs::registerFleetAudits(
            *auditor, fleet,
            cfg.fault.watchdog.enabled ? &cfg.fault.watchdog : nullptr);
        auditor->start();
    }
}

World::~World() = default;

Task &
World::spawn(const WorkloadSpec &spec)
{
    PlacementRequest req;
    req.label = spec.label;
    req.affinityKey = spec.affinityKey;
    req.demand = spec.demand;
    Task &t = fleet.createTask(req);
    specs.push_back(spec);
    return t;
}

void
World::start()
{
    const std::vector<Task *> tasks = fleet.tasks();
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        Task &t = *tasks[i];
        fleet.startTask(t,
                        makeWorkloadBody(t, specs[i], taskSeed(cfg, i)));
    }
    fleet.start();
}

void
World::beginMeasurement()
{
    measureStart = eq.now();
    baselineBusy.clear();
    baselineRequests.clear();
    deviceBusyBaseline = fleet.perDeviceBusy();
    deviceSwitchBaseline.clear();
    for (std::size_t i = 0; i < fleet.deviceCount(); ++i)
        deviceSwitchBaseline.push_back(
            fleet.stack(i).meter.totalSwitchOverhead());
    vtimeBaseline = fleet.publishedVtimes();
    for (Task *t : fleet.tasks())
        t->resetStats();
    for (const FleetTaskUsage &u : fleet.taskUsage()) {
        baselineBusy.push_back(u.busy);
        baselineRequests.push_back(u.requests);
    }
    for (auto &t : traces)
        t->reset();
}

RunResult
World::results()
{
    RunResult r;
    r.elapsed = eq.now() - measureStart;
    r.kills = fleet.totalKills();

    r.deviceBusy = fleet.perDeviceBusy();
    for (std::size_t i = 0; i < r.deviceBusy.size(); ++i) {
        if (i < deviceBusyBaseline.size())
            r.deviceBusy[i] -= deviceBusyBaseline[i];
        r.switchOverhead +=
            fleet.stack(i).meter.totalSwitchOverhead() -
            (i < deviceSwitchBaseline.size() ? deviceSwitchBaseline[i]
                                             : 0);
    }

    // Window-adjusted per-task usage feeds both the task results and
    // the fleet fairness indices.
    std::vector<FleetTaskUsage> usage = fleet.taskUsage();
    for (std::size_t i = 0; i < usage.size(); ++i) {
        FleetTaskUsage &u = usage[i];
        u.busy -= i < baselineBusy.size() ? baselineBusy[i] : 0;
        u.requests -=
            i < baselineRequests.size() ? baselineRequests[i] : 0;

        TaskResult tr;
        tr.label = u.label;
        tr.device = u.device;
        tr.pid = u.pid;
        tr.meanRoundUs = u.rounds.mean();
        tr.rounds = u.rounds.count();
        tr.gpuBusy = u.busy;
        tr.requests = u.requests;
        tr.killed = u.killed;
        r.requests += u.requests;
        r.tasks.push_back(std::move(tr));
    }

    r.throughputRps = fleetThroughputRps(r.requests, r.elapsed);
    r.fairness.taskFairness = fleetTaskFairness(usage, fleet);
    r.fairness.deviceBalance = fleetDeviceBalance(r.deviceBusy);
    r.fairness.vtimeSpreadMs = fleetVtimeSpreadMs(fleet, vtimeBaseline);
    if (auditor) {
        auditor->finalize();
        r.audit = auditor->report();
    }
    return r;
}

RunResult
ExperimentRunner::run(const std::vector<WorkloadSpec> &specs) const
{
    World world(cfg);
    for (const auto &s : specs)
        world.spawn(s);
    world.start();
    world.runFor(cfg.warmup);
    world.beginMeasurement();
    world.runFor(cfg.measure);
    return world.results();
}

double
ExperimentRunner::soloRoundUs(const WorkloadSpec &spec) const
{
    ExperimentConfig solo_cfg = cfg;
    solo_cfg.sched = SchedKind::Direct;
    solo_cfg.fleet = {};
    solo_cfg.shards = {};
    solo_cfg.observe = {}; // baselines never trace
    ExperimentRunner solo(solo_cfg);
    const RunResult r = solo.run({spec});
    return r.tasks.at(0).meanRoundUs;
}

std::vector<double>
ExperimentRunner::slowdowns(const std::vector<WorkloadSpec> &specs) const
{
    const RunResult co = run(specs);
    std::vector<double> out;
    out.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const double solo = soloRoundUs(specs[i]);
        const double corun = co.tasks.at(i).meanRoundUs;
        out.push_back(solo > 0.0 ? corun / solo : 0.0);
    }
    return out;
}

} // namespace neon
