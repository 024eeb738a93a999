/**
 * @file
 * The benchmark's workloads and the end-to-end run of one of them.
 *
 * All three share one fleet — 64 DFQ devices with two session slots
 * each and the global virtual clock steering placement every 10 ms —
 * and differ in the traffic offered and the core driving it:
 *
 *   serve_steady    one class of throttle(430us) sessions, Poisson
 *                   400/s, fixed 200 ms lifetimes: ~80 live sessions
 *                   against 128 slots, so no queue ever forms.
 *   serve_overload  the whole control plane live: FairShare admission,
 *                   QoS ordering with preemption, predictive shedding,
 *                   a per-tenant token bucket, two batch tenants at ~3x
 *                   slot capacity, one interactive tenant, and one
 *                   scripted device death with repair mid-run.
 *   serve_sharded   serve_steady's traffic on the sharded core.
 *
 * Traffic is open-loop Poisson in simulated time; every figure this
 * file times is host time.
 */

#include <algorithm>
#include <cstring>
#include <sstream>
#include <thread>

#include "bench.hh"

namespace perfbench
{

namespace
{

constexpr std::size_t fleetDevices = 64;
constexpr unsigned shardCount = 3;

/** The fleet every workload runs on. */
ExperimentConfig
baseConfig(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = fleetDevices;
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.seed = seed;
    return cfg;
}

ServeWorkloadSpec
steadyTraffic()
{
    WorkloadSpec w = WorkloadSpec::throttle(usec(430));
    w.label = "steady";
    return {w, ArrivalSpec::poisson(400.0), LifetimeSpec::fixed(msec(200))};
}

Workload
serveSteady(std::uint64_t seed)
{
    Workload w;
    w.name = "serve_steady";
    w.cfg = baseConfig(seed);
    w.specs = {steadyTraffic()};
    w.horizon = sec(5);
    return w;
}

Workload
serveOverload(std::uint64_t seed)
{
    Workload w;
    w.name = "serve_overload";
    w.cfg = baseConfig(seed);
    ServeConfig &s = w.cfg.serve;
    s.admission = AdmissionKind::FairShare;
    s.qos.enabled = true;
    s.qos.preemption = true;
    s.shed.enabled = true;
    // Between the interactive (100/s) and batch (960/s) offered rates:
    // only the batch tenants are throttled.
    s.rateLimit.ratePerSec = 800.0;
    s.rateLimit.burst = 50.0;

    // 128 slots x 5 sessions/s each = 640/s of capacity; the batch
    // tenants offer 3x that between them.
    WorkloadSpec batch = WorkloadSpec::throttle(usec(430));
    batch.label = "batch-a";
    ServeWorkloadSpec a{batch, ArrivalSpec::poisson(960.0),
                        LifetimeSpec::fixed(msec(200)), "tenant-a"};
    batch.label = "batch-b";
    ServeWorkloadSpec b{batch, ArrivalSpec::poisson(960.0),
                        LifetimeSpec::fixed(msec(200)), "tenant-b"};

    WorkloadSpec inter = WorkloadSpec::throttle(usec(200));
    inter.label = "interactive";
    ServeWorkloadSpec i{inter, ArrivalSpec::poisson(100.0),
                        LifetimeSpec::exponential(msec(50)), "frontend"};
    i.qos = QosClass::Interactive;
    i.queueBudget = msec(20);
    w.specs = {i, a, b};

    FaultEvent death;
    death.at = msec(2500);
    death.kind = FaultKind::DeviceDeath;
    death.device = 5;
    death.duration = msec(300);
    w.cfg.fault.plan.script = {death};

    w.horizon = sec(5);
    return w;
}

Workload
serveSharded(std::uint64_t seed)
{
    Workload w = serveSteady(seed);
    w.name = "serve_sharded";
    // Workers plus the coordinator fit within the host's cores. The
    // shard count is fixed, so results never depend on the host.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    w.cfg.shards.count = shardCount;
    w.cfg.shards.threads = std::clamp(hw - 1, 1u, shardCount);
    return w;
}

/** Fold @p v's bytes into @p h. */
template <typename T>
void
mix(std::uint64_t &h, const T &v)
{
    h = fnv1a(&v, sizeof v, h);
}

/**
 * Fingerprint of the simulated results: outcome counts, migrations,
 * per-device busy ticks and completed requests, and the bits of
 * serviceFairness. Any change to the model moves it; host timing and
 * tracing never do.
 */
std::uint64_t
fingerprintOf(const ServeRunResult &r, const FleetManager &fleet)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint64_t v :
         {r.arrivals, r.departures, r.shedSessions, r.throttledSessions,
          r.preemptions, r.kills, r.migrations})
        mix(h, v);
    for (Tick b : r.deviceBusy)
        mix(h, b);
    std::vector<std::uint64_t> reqs(fleet.deviceCount(), 0);
    for (const FleetTaskUsage &u : fleet.taskUsage())
        reqs[u.device] += u.requests;
    for (std::uint64_t v : reqs)
        mix(h, v);
    std::uint64_t fair = 0;
    std::memcpy(&fair, &r.serviceFairness, sizeof fair);
    mix(h, fair);
    return h;
}

/** Count @p ring's records by category, note any wrap, and clear it. */
void
drainRing(obs::TraceRecorder &ring, TraceCounts &counts)
{
    counts.dropped += ring.dropped();
    for (const obs::TraceRecord &r : ring.snapshot())
        ++counts.byCategory[r.cat & 7u];
    ring.clear();
}

} // namespace

std::uint64_t
fnv1a(const void *bytes, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "serve_steady", "serve_overload", "serve_sharded"};
    return names;
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "serve_steady")
        return serveSteady(seed);
    if (name == "serve_overload")
        return serveOverload(seed);
    if (name == "serve_sharded")
        return serveSharded(seed);
    panic("perfbench: unknown workload ", name);
}

std::string
describeConfig(const Workload &w)
{
    const ExperimentConfig &c = w.cfg;
    const ServeConfig &s = c.serve;
    std::ostringstream os;
    os << "sched=" << schedKindName(c.sched) << ";devices="
       << c.fleet.devices << ";slots=" << s.slotsPerDevice
       << ";poll=" << c.pollPeriod << ";clock=" << s.useGlobalClock << '/'
       << s.clockPeriod << ";migration=" << s.migrationLag << '/'
       << s.migrationMinTasks << ";admission="
       << admissionKindName(s.admission) << ";qos=" << s.qos.enabled << '/'
       << s.qos.preemption << '/' << s.qos.preemptionBackoff
       << ";shed=" << s.shed.enabled << '/' << s.shed.safety
       << ";bucket=" << s.rateLimit.ratePerSec << '/' << s.rateLimit.burst
       << ";shards=" << c.shards.count << ";horizon=" << w.horizon;
    for (const FaultEvent &f : c.fault.plan.script)
        os << ";fault=" << static_cast<int>(f.kind) << '@' << f.at << '/'
           << f.device << '/' << f.duration;
    for (const ServeWorkloadSpec &sp : w.specs) {
        os << ";class=" << sp.workload.label << '/' << sp.tenant << '/'
           << qosClassName(sp.qos) << '/' << sp.queueBudget << '/'
           << sp.workload.throttleParams.requestSize << '/'
           << sp.arrivals.ratePerSec << '/'
           << static_cast<int>(sp.lifetime.kind) << '/'
           << sp.lifetime.mean;
    }
    return os.str();
}

double
setupSeconds(const Workload &w)
{
    const auto c0 = Clock::now();
    ServeWorld world(w.cfg, w.specs);
    world.start();
    return secondsSince(c0);
}

RunOutcome
runWorkload(const Workload &w, const RunOptions &opt)
{
    ExperimentConfig cfg = w.cfg;
    cfg.observe.audit.enabled = opt.audit;

    RunOutcome out;
    const auto c0 = Clock::now();
    ServeWorld world(cfg, w.specs);

    std::vector<CallRecord> *cap = opt.capture;
    if (cap) {
        world.engine.addSessionListener([cap](const SessionEvent &e) {
            cap->push_back({CallRecord::Kind::Session, e});
        });
        // Capacity changes are not session events; record them ahead
        // of the engine's own handler so the replay sees them in order.
        const auto hook = [cap, &world](CallRecord::Kind k,
                                        std::function<void(std::size_t)> &fn) {
            fn = [cap, &world, k, inner = fn](std::size_t dev) {
                CallRecord r;
                r.kind = k;
                r.ev.when = world.eq.now();
                r.ev.device = static_cast<std::int32_t>(dev);
                cap->push_back(r);
                inner(dev);
            };
        };
        hook(CallRecord::Kind::DeviceDown, world.fleet.onDeviceDown);
        hook(CallRecord::Kind::DeviceUp, world.fleet.onDeviceUp);
    }

    // The traced pass records into rings the benchmark owns and drains
    // between 10 ms chunks of simulated time (a multiple of the shard
    // window, so the window grid is unchanged), so nothing is lost.
    constexpr std::size_t ringCapacity = std::size_t(1) << 18;
    obs::TraceRecorder mainRing(opt.traceMask ? ringCapacity : 64);
    std::vector<std::unique_ptr<obs::TraceRecorder>> shardRings;
    if (opt.traceMask) {
        obs::setTraceSink(&mainRing, opt.traceMask, &world.eq);
        if (world.shardCore.parallel()) {
            for (std::size_t s = 0; s < world.shardCore.shardCount(); ++s) {
                shardRings.push_back(
                    std::make_unique<obs::TraceRecorder>(ringCapacity));
                world.shardCore.setShardTraceSink(s, shardRings.back().get());
            }
        }
    }

    world.start();
    out.setupS = secondsSince(c0);
    out.spawnS = world.shardCore.setupSeconds();

    if (opt.traceMask) {
        const Tick chunk = msec(10);
        for (Tick done = 0; done < w.horizon; done += chunk) {
            const auto t0 = Clock::now();
            world.runFor(std::min(chunk, w.horizon - done));
            out.runS += secondsSince(t0);
            drainRing(mainRing, out.trace);
            for (auto &r : shardRings)
                drainRing(*r, out.trace);
        }
        world.shardCore.clearShardTraceSinks();
        obs::setTraceSink(nullptr, 0);
    } else {
        const auto t0 = Clock::now();
        world.runFor(w.horizon);
        out.runS = secondsSince(t0);
    }
    out.events = world.eventsExecuted();

    const auto h0 = Clock::now();
    const ServeRunResult res = world.results();
    out.harvestS = secondsSince(h0);

    out.fingerprint = fingerprintOf(res, world.fleet);
    out.sessions = res.sessions.size();
    out.arrivals = res.arrivals;
    out.departures = res.departures;
    out.auditChecks = res.audit.checks;
    out.auditViolations = res.audit.violations;

    out.peakLiveEvents = world.eq.stats().peakLive;
    for (std::size_t s = 0; s < world.shardCore.shardCount(); ++s) {
        const EventQueue &q = world.shardCore.shardQueue(s);
        out.peakLiveEvents = std::max(out.peakLiveEvents, q.stats().peakLive);
    }
    out.windows = world.shardCore.windowsRun();
    out.mailboxMessages = world.shardCore.mailboxMessages();

    const FleetManager &fleet = world.fleet;
    out.gpuRequests = fleet.totalRequests();
    out.gpuBusyFrac = static_cast<double>(fleet.totalBusy()) /
        (static_cast<double>(res.elapsed) *
         static_cast<double>(fleet.deviceCount()));
    for (std::size_t d = 0; d < fleet.deviceCount(); ++d) {
        if (const auto *dfq = dynamic_cast<const DisengagedFairQueueing *>(
                fleet.stack(d).sched.get()))
            out.dfqEpisodes += dfq->episodes();
    }

    out.migrations = res.migrations;
    out.evictions = res.evictions;
    out.failovers = res.failovers;
    out.preemptions = res.preemptions;
    out.throttled = res.throttledSessions;
    out.predictiveSheds = res.predictiveSheds;
    out.peakLiveSessions = res.peakLiveSessions;
    return out;
}

} // namespace perfbench
