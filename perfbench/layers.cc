/**
 * @file
 * Per-layer drivers: each times calls into one layer's public
 * functions from outside.
 *
 * Replay drivers feed a workload's captured call stream into a fresh
 * instance of the real component; isolated drivers run the real
 * component alone at the sizes the workloads reach. Calls that each
 * do distinct work (replay, placement, admission release) are timed
 * one by one; the event-queue step, far shorter than a clock read, is
 * timed in batches and reported per op.
 */

#include <algorithm>
#include <deque>
#include <optional>

#include "bench.hh"

namespace perfbench
{

namespace
{

/** Serve-layer facts of one class, derived as ServeEngine derives them. */
struct ClassInfo
{
    std::string label;
    std::string tenant;
    double demand = 1.0;
    int rank = 0;    ///< QoS release rank (0 with QoS off)
    Tick budget = 0; ///< queue budget (0 = none)
};

/** Time one call, appending its ns to @p into. */
template <typename F>
auto
timed(std::vector<double> &into, F &&fn)
{
    const auto t0 = Clock::now();
    auto r = fn();
    into.push_back(nsBetween(t0, Clock::now()));
    return r;
}

double
sumSeconds(const std::vector<double> &ns)
{
    double s = 0.0;
    for (double x : ns)
        s += x * 1e-9;
    return s;
}

bool
isSession(const CallRecord &r, std::uint64_t sid, SessionEvent::Kind k)
{
    return r.kind == CallRecord::Kind::Session && r.ev.session == sid &&
        r.ev.kind == k;
}

/** The benchmark fleet's device stack config with a DFQ factory. */
FleetManager
makeFleet(EventQueue &eq, const ExperimentConfig &cfg)
{
    return FleetManager(eq, cfg.fleet, cfg.device, cfg.costs,
                        cfg.channelPolicy, cfg.pollPeriod,
                        [&cfg](KernelModule &kernel, const UsageMeter &meter,
                               std::size_t) {
                            return makeScheduler(cfg, kernel, &meter);
                        });
}

} // namespace

AdmissionReplay
replayAdmission(const Workload &w, const std::vector<CallRecord> &stream)
{
    using K = SessionEvent::Kind;
    const ServeConfig &cfg = w.cfg.serve;
    const std::size_t slots = resolveSlotsPerDevice(w.cfg);
    std::size_t up = w.cfg.fleet.devices;

    AdmissionController adm(cfg.admission, slots * up);
    TenantRateLimiter limiter(cfg.rateLimit);
    SloAdmission shedder(cfg.shed);

    std::vector<ClassInfo> classes;
    for (const ServeWorkloadSpec &s : w.specs) {
        ClassInfo c;
        c.label = s.workload.label;
        c.tenant = s.tenant.empty() ? c.label : s.tenant;
        c.demand = s.workload.demand;
        c.rank = cfg.qos.enabled ? qosPriorityOf(s.qos) : 0;
        c.budget = s.queueBudget > 0 ? s.queueBudget : cfg.slo.queueTarget;
        shedder.seedHold(c.label, s.lifetime.finite() ? s.lifetime.mean : 0);
        classes.push_back(std::move(c));
    }

    struct SessionState
    {
        std::size_t cls = 0;
        Tick admitted = -1;
        bool preempted = false; ///< last interruption was a preemption
    };
    std::vector<SessionState> sessions;

    AdmissionReplay out;
    std::vector<double> otherNs; // releaseIfFree, removePending
    std::vector<std::uint64_t> released, recorded;
    std::size_t throttleMismatches = 0;
    const auto noteRelease = [&released](
                                 const std::optional<QueuedRequest> &r) {
        if (r)
            released.push_back(r->session);
    };

    for (std::size_t i = 0; i < stream.size(); ++i) {
        const CallRecord &rec = stream[i];
        const SessionEvent &e = rec.ev;
        if (rec.kind != CallRecord::Kind::Session) {
            // onDeviceDown / onDeviceUp, as ServeEngine handles them.
            const bool repaired = rec.kind == CallRecord::Kind::DeviceUp;
            up = repaired ? up + 1 : up - 1;
            adm.setCapacity(slots * up);
            if (repaired) {
                while (auto r = timed(otherNs,
                                      [&] { return adm.releaseIfFree(); }))
                    noteRelease(r);
            }
            continue;
        }
        if (e.kind == K::Arrive && sessions.size() <= e.session)
            sessions.resize(e.session + 1);
        SessionState &s = sessions[e.session];
        const ClassInfo &c = classes[e.kind == K::Arrive ? e.cls : s.cls];

        switch (e.kind) {
          case K::Arrive: {
            s.cls = e.cls;
            // Front door: the bucket on every arrival, the shed
            // prediction only where the engine makes it. The timed
            // prediction includes ServeEngine::queuedWorkAhead's
            // O(queue) scan, done here as the engine does it.
            const auto f0 = Clock::now();
            const bool allowed = limiter.allow(c.tenant, e.when);
            double frontNs = nsBetween(f0, Clock::now());
            const bool wouldQueue =
                adm.live() >= adm.capacity() || adm.pendingCount() > 0;
            if (allowed && wouldQueue && cfg.shed.enabled && c.budget > 0) {
                const auto d0 = Clock::now();
                const Tick residual = adm.live() >= adm.capacity()
                    ? shedder.holdOf(c.label) / 2
                    : 0;
                Tick ahead = 0;
                for (const QueuedRequest &q : adm.queued()) {
                    if (q.qosPriority <= c.rank)
                        ahead += shedder.holdOf(
                            classes[sessions[q.session].cls].label);
                }
                (void)shedder.decide(ahead, residual, adm.capacity(),
                                     c.budget);
                frontNs += nsBetween(d0, Clock::now());
            }
            out.frontDoorNs.push_back(frontNs);

            // Follow the engine's recorded outcome so the replay stays
            // aligned even where its own prediction would differ.
            const bool throttled =
                i + 1 < stream.size() && isSession(stream[i + 1], e.session,
                                                   K::Throttle);
            if (allowed == throttled)
                ++throttleMismatches;
            if (throttled ||
                (i + 1 < stream.size() &&
                 isSession(stream[i + 1], e.session, K::Shed)))
                break;

            QueuedRequest qr;
            qr.session = e.session;
            qr.tenant = c.tenant;
            qr.demand = c.demand;
            qr.enqueued = e.when;
            qr.qosPriority = c.rank;
            qr.deadline =
                cfg.qos.enabled && c.budget > 0 ? e.when + c.budget : 0;
            if (timed(out.arriveNs, [&] { return adm.arrive(qr); })) {
                released.push_back(e.session);
            } else if (cfg.qos.enabled && cfg.qos.preemption &&
                       !adm.queued().empty()) {
                noteRelease(
                    timed(otherNs, [&] { return adm.releaseIfFree(); }));
            }
            break;
          }
          case K::Admit:
            recorded.push_back(e.session);
            if (s.admitted < 0)
                s.admitted = e.when;
            break;
          case K::Depart:
          case K::Kill:
            if (s.admitted >= 0)
                shedder.noteHold(c.label, e.when - s.admitted);
            noteRelease(timed(out.departNs,
                              [&] { return adm.depart(c.tenant); }));
            break;
          case K::Evict:
          case K::Preempt:
            s.preempted = e.kind == K::Preempt;
            noteRelease(timed(out.departNs,
                              [&] { return adm.depart(c.tenant); }));
            break;
          case K::RetryEnqueue: {
            QueuedRequest qr;
            qr.session = e.session;
            qr.tenant = c.tenant;
            qr.demand = c.demand;
            qr.enqueued = e.when;
            if (s.preempted) {
                qr.qosPriority = c.rank;
                qr.deadline =
                    cfg.qos.enabled && c.budget > 0 ? e.when + c.budget : 0;
            } else {
                qr.priority = true; // fault retry: paid its queueing once
            }
            if (timed(out.arriveNs, [&] { return adm.arrive(qr); }))
                released.push_back(e.session);
            break;
          }
          case K::Shed:
            // A front-door shed never reached the controller; a shed
            // after eviction drops whatever the session left queued.
            if (!(i > 0 && isSession(stream[i - 1], e.session, K::Arrive)))
                timed(otherNs, [&] { return adm.removePending(e.session); });
            break;
          case K::Throttle:
          case K::Migrate:
            break;
        }
    }

    out.selfS = sumSeconds(out.arriveNs) + sumSeconds(out.departNs) +
        sumSeconds(out.frontDoorNs) + sumSeconds(otherNs);
    out.peakPending = adm.peakPending();
    out.admits = released.size();
    out.engineAdmits = recorded.size();
    out.orderMatches = released == recorded;
    out.throttlesMatch = throttleMismatches == 0;
    return out;
}

std::vector<double>
eventQueueStepNs(std::size_t depth, double budgetS)
{
    // Every event reschedules itself at a random future tick, so the
    // queue holds exactly `depth` live events throughout.
    struct Churn
    {
        EventQueue &eq;
        Rng rng;
        void
        fire()
        {
            eq.scheduleIn(rng.uniformInt(1, 1'000'000), [this] { fire(); });
        }
    };
    EventQueue eq;
    Churn churn{eq, Rng(depth)};
    for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i)
        churn.fire();

    constexpr int batch = 64;
    std::vector<double> perOp;
    const auto start = Clock::now();
    while (perOp.size() < 200 || secondsSince(start) < budgetS) {
        const auto t0 = Clock::now();
        for (int k = 0; k < batch; ++k)
            eq.step();
        perOp.push_back(nsBetween(t0, Clock::now()) / batch);
    }
    return perOp;
}

std::vector<double>
deviceStackEventsPerSec(double budgetS)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    std::vector<double> rates;
    const auto start = Clock::now();
    while (rates.size() < 3 || secondsSince(start) < budgetS) {
        World world(cfg);
        world.spawn(WorkloadSpec::throttle(usec(430)));
        world.spawn(WorkloadSpec::throttle(usec(430)));
        world.start();
        const std::uint64_t e0 = world.eq.executed();
        const auto t0 = Clock::now();
        world.runFor(msec(200));
        rates.push_back(static_cast<double>(world.eq.executed() - e0) /
                        secondsSince(t0));
    }
    return rates;
}

void
fleetPlaceRetireNs(const ExperimentConfig &cfg, std::size_t live,
                   double budgetS, std::vector<double> &placeNs,
                   std::vector<double> &retireNs)
{
    EventQueue eq;
    FleetManager fleet = makeFleet(eq, cfg);
    const std::size_t devices = fleet.deviceCount();

    PlacementRequest req;
    req.label = "placed";
    std::deque<Task *> placed;
    for (std::size_t i = 0; i < std::max<std::size_t>(live, 1); ++i)
        placed.push_back(&fleet.createTaskOn(i % devices, req));

    // The fleet keeps every task it ever placed, so cap the count.
    const auto start = Clock::now();
    for (std::size_t k = 0; k < 20000 &&
         (k < 200 || secondsSince(start) < budgetS);
         ++k) {
        Task *oldest = placed.front();
        placed.pop_front();
        timed(retireNs, [&] {
            fleet.retireTask(*oldest);
            return 0;
        });
        const std::size_t dev = (k * 37) % devices;
        placed.push_back(timed(placeNs, [&] {
            return &fleet.createTaskOn(dev, req);
        }));
    }
}

std::vector<double>
admissionReleaseNs(std::size_t depth, double budgetS)
{
    // serve_overload's policy and mix: FairShare over three tenants,
    // QoS on, one interactive request (with a deadline) in ten.
    constexpr std::size_t capacity = 128;
    const std::string tenants[] = {"frontend", "tenant-a", "tenant-b"};
    AdmissionController adm(AdmissionKind::FairShare, capacity);

    std::uint64_t sid = 0;
    const auto request = [&] {
        QueuedRequest q;
        q.session = sid;
        q.enqueued = static_cast<Tick>(sid) * usec(100);
        if (sid % 10 == 0) {
            q.tenant = tenants[0];
            q.qosPriority = qosPriorityOf(QosClass::Interactive);
            q.deadline = q.enqueued + msec(20);
        } else {
            q.tenant = tenants[1 + sid % 2];
            q.qosPriority = qosPriorityOf(QosClass::Batch);
        }
        ++sid;
        return q;
    };

    std::deque<std::string> liveTenants;
    for (std::size_t i = 0; i < capacity; ++i) {
        const QueuedRequest q = request();
        adm.arrive(q);
        liveTenants.push_back(q.tenant);
    }
    for (std::size_t i = 0; i < depth; ++i)
        adm.arrive(request());

    std::vector<double> ns;
    const auto start = Clock::now();
    while (ns.size() < 20 ||
           (ns.size() < 20000 && secondsSince(start) < budgetS)) {
        const std::string tenant = liveTenants.front();
        liveTenants.pop_front();
        const auto r =
            timed(ns, [&] { return adm.depart(tenant); });
        if (r)
            liveTenants.push_back(r->tenant);
        adm.arrive(request()); // restore the depth
    }
    return ns;
}

std::vector<double>
engineSessionNs(bool deep, double budgetS)
{
    // serve_overload's control plane without the bucket or faults, on
    // the benchmark fleet, with 1 ms sessions whose body returns at
    // once: host time is the serve engine's and the fleet's
    // bookkeeping, not device simulation. Kernels are never started,
    // so no polling events dilute it.
    Workload w = makeWorkload("serve_overload", 1);
    ServeConfig cfg = w.cfg.serve;
    cfg.rateLimit = {};
    const std::size_t slots = resolveSlotsPerDevice(w.cfg);
    const double capacityPerSec =
        static_cast<double>(slots * w.cfg.fleet.devices) * 1000.0;
    const double load = deep ? 1.0 : 0.5;

    const auto makeClass = [](std::string label, std::string tenant,
                              ArrivalSpec arrivals, LifetimeSpec life) {
        ServeClass c;
        c.label = std::move(label);
        c.tenant = std::move(tenant);
        c.arrivals = std::move(arrivals);
        c.lifetime = life;
        c.makeBody = [](Task &, std::uint64_t) -> Co { co_return; };
        return c;
    };
    std::vector<ServeClass> classes;
    ServeClass inter = makeClass(
        "interactive", "frontend",
        ArrivalSpec::poisson(0.03 * load * capacityPerSec),
        LifetimeSpec::exponential(msec(1)));
    inter.qos = QosClass::Interactive;
    inter.queueBudget = msec(20);
    classes.push_back(std::move(inter));
    for (const char *t : {"tenant-a", "tenant-b"}) {
        classes.push_back(makeClass(
            t, t, ArrivalSpec::poisson(0.485 * load * capacityPerSec),
            LifetimeSpec::fixed(msec(1))));
    }
    if (deep) {
        // One burst at t=0 builds the ~5k-deep queue that load 1.0
        // then holds.
        classes.push_back(makeClass("backlog", "tenant-a",
                                    ArrivalSpec::burst(5000, sec(1000)),
                                    LifetimeSpec::fixed(msec(1))));
    }

    EventQueue eq;
    FleetManager fleet = makeFleet(eq, w.cfg);
    ServeEngine engine(eq, fleet, cfg, std::move(classes), slots, 1);
    engine.start();
    eq.runFor(msec(1)); // absorb the burst, untimed

    std::vector<double> ns;
    const auto start = Clock::now();
    while (ns.size() < 10 || secondsSince(start) < budgetS) {
        const std::uint64_t d0 = engine.departures();
        const auto t0 = Clock::now();
        eq.runFor(msec(2));
        const double wallNs = nsBetween(t0, Clock::now());
        const std::uint64_t served = engine.departures() - d0;
        if (served > 0)
            ns.push_back(wallNs / static_cast<double>(served));
    }
    return ns;
}

} // namespace perfbench
