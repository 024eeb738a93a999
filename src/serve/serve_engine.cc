#include "serve/serve_engine.hh"

#include <algorithm>
#include <utility>

#include "obs/trace.hh"
#include "sched/vtime_tap.hh"
#include "sim/logging.hh"

namespace neon
{

namespace
{

// Short names for the step table.
constexpr obs::TraceCategory Serve = obs::TraceCategory::Serve;
constexpr obs::TraceCategory Fault = obs::TraceCategory::Fault;
constexpr obs::TraceKind Begin = obs::TraceKind::AsyncBegin;
constexpr obs::TraceKind Point = obs::TraceKind::Instant;
constexpr obs::TraceKind NoHop = obs::TraceKind::Instant;
constexpr obs::TraceKind Start = obs::TraceKind::FlowStart;
constexpr obs::TraceKind Step = obs::TraceKind::FlowStep;
constexpr obs::TraceKind End = obs::TraceKind::FlowEnd;
using K = SessionEvent::Kind;

/** Interned names of the step table's records. */
struct StepNames
{
    std::array<std::uint16_t, sessionStepCount> step;
    std::uint16_t flow;
    std::uint16_t span;
};

StepNames
internStepNames()
{
    StepNames n{};
    for (std::size_t i = 0; i < sessionStepCount; ++i)
        n.step[i] = obs::internTraceName(sessionSteps[i].name);
    n.flow = obs::internTraceName("session.flow");
    n.span = obs::internTraceName("session");
    return n;
}

/**
 * Add one incarnation's usage to its session. Incarnations get fresh
 * pids, so the meter's per-pid counters are exactly that incarnation's
 * usage — no baseline arithmetic.
 */
void
foldIncarnation(ServeSessionResult &s, const IncarnationUsage &u)
{
    s.busy += u.busy;
    s.requests += u.requests;
    s.roundUsSum += u.rounds.mean() * static_cast<double>(u.rounds.count());
    s.rounds += u.rounds.count();
}

} // namespace

// The arrival's record opens the `session` async span and each outcome
// step (depart, kill, either shed, throttle) closes it; the
// `session.flow` arrow starts at the first admission and follows the
// session from device to device.
const std::array<SessionStepRow, sessionStepCount> sessionSteps = {{
    // name                   cat    kind   event            device hop    span end
    {"session",               Serve, Begin, K::Arrive,       false, NoHop, false},
    {"serve.admit",           Serve, Point, K::Admit,        true,  Start, false},
    {"serve.failover",        Fault, Point, K::Admit,        true,  Step,  false},
    {"serve.preempt_resume",  Serve, Point, K::Admit,        true,  Step,  false},
    {"serve.migrate",         Serve, Point, K::Migrate,      true,  Step,  false},
    {"serve.evict",           Fault, Point, K::Evict,        true,  NoHop, false},
    {"serve.retry_arrive",    Fault, Point, K::RetryEnqueue, false, NoHop, false},
    {"serve.preempt_requeue", Serve, Point, K::RetryEnqueue, false, NoHop, false},
    {"serve.depart",          Serve, Point, K::Depart,       true,  End,   true},
    {"serve.session_killed",  Serve, Point, K::Kill,         true,  End,   true},
    {"serve.shed",            Fault, Point, K::Shed,         false, End,   true},
    {"serve.shed_predicted",  Serve, Point, K::Shed,         false, NoHop, true},
    {"serve.throttle",        Serve, Point, K::Throttle,     false, NoHop, true},
    {"serve.preempt",         Serve, Point, K::Preempt,      true,  Step,  false},
}};

ServeEngine::ServeEngine(EventQueue &eq, FleetManager &fleet,
                         const ServeConfig &cfg,
                         std::vector<ServeClass> classes,
                         std::size_t slots_per_device, std::uint64_t seed)
    : eq(eq), fleet(fleet), cfg(cfg), classes(std::move(classes)),
      slots(slots_per_device), seed(seed),
      adm(cfg.admission, slots_per_device * fleet.deviceCount()),
      clock(fleet, slots_per_device), limiter(cfg.rateLimit),
      shedder(cfg.shed), lifetimeRng(namedStream(seed, "serve.lifetime"))
{
    if (this->classes.empty())
        panic("serve: at least one workload class is required");
    if (slots == 0)
        panic("serve: slotsPerDevice must be at least 1");

    // Prime per-class holding estimates from the configured lifetime
    // means so the first shed predictions are sane before any
    // departure has been observed (forever-lived classes prime to the
    // floor; their holds are unbounded anyway).
    for (const ServeClass &c : this->classes)
        shedder.seedHold(c.label, c.lifetime.finite() ? c.lifetime.mean : 0);

    // Named streams keep workload draws bit-identical whether or not
    // the fault plane (with its own streams) is enabled.
    Rng arrivalsRoot = namedStream(seed, "serve.arrivals");
    arrivalProcs.reserve(this->classes.size());
    for (const ServeClass &c : this->classes) {
        if (!c.makeBody)
            panic("serve: class ", c.label, " has no body factory");
        arrivalProcs.emplace_back(c.arrivals, arrivalsRoot.fork());
    }

    // Protection kills end a session from below the serve layer;
    // finish the lifecycle bookkeeping and free the admission slot.
    fleet.onTaskKilled = [this](Task &t) {
        const SessionRecord *s = placedSessionOf(t);
        if (!s)
            return;
        const std::uint64_t sid = s->id;
        // Minimal work here: this hook runs inside the kill path, so
        // releasing the slot (which may place and start a queued
        // session) is deferred to a fresh event.
        this->eq.scheduleIn(0, [this, sid] { finalizeKill(sid); });
    };

    // Device failure: capacity shrinks before the evictions land, each
    // evicted session re-queues through retry/backoff, and repair
    // restores capacity and drains the queue onto it.
    fleet.onTaskEvicted = [this](Task &t) { onEviction(t); };
    fleet.onDeviceDown = [this](std::size_t) {
        onFleetCapacityChange();
    };
    fleet.onDeviceUp = [this](std::size_t) {
        onFleetCapacityChange();
        while (auto released = adm.releaseIfFree())
            admitSession(released->session);
    };
}

void
ServeEngine::start()
{
    for (std::size_t c = 0; c < classes.size(); ++c)
        scheduleNextArrival(c);
    if (cfg.useGlobalClock && cfg.clockPeriod > 0) {
        eq.scheduleIn(cfg.clockPeriod, [this] { onClockTick(); });
    }
}

void
ServeEngine::scheduleNextArrival(std::size_t cls)
{
    Tick when = 0;
    if (!arrivalProcs[cls].next(when))
        return; // class exhausted (trace consumed or past `until`)
    if (when < eq.now())
        when = eq.now(); // defensive: never schedule into the past
    eq.schedule(when, [this, cls] { onArrival(cls); });
}

void
ServeEngine::onArrival(std::size_t cls)
{
    const ServeClass &c = classes[cls];
    const std::uint64_t sid = sessions.size();

    auto s = std::make_unique<SessionRecord>();
    s->id = sid;
    s->cls = cls;
    s->label = c.label + "#" + std::to_string(sid);
    s->tenant = c.tenant.empty() ? c.label : c.tenant;
    s->arrived = eq.now();
    sessions.push_back(std::move(s));

    ++nLive;
    if (nLive > peakLive)
        peakLive = nLive;
    publish(SessionStep::Arrive, *sessions[sid], cls, nLive);

    // Front door, stage 1: per-tenant token bucket. A throttled
    // arrival is recorded and counted, never silently dropped.
    if (!limiter.allow(sessions[sid]->tenant, eq.now())) {
        throttleSession(*sessions[sid]);
        scheduleNextArrival(cls);
        return;
    }

    const Tick budget = queueBudgetOf(cls);
    QueuedRequest qr;
    qr.session = sid;
    qr.tenant = sessions[sid]->tenant;
    qr.demand = c.demand;
    qr.enqueued = eq.now();
    qr.qosPriority = qosRankOf(cls);
    qr.cls = cls;
    // Deadline-aware release ordering is part of the QoS feature; off,
    // the budget only drives shedding and goodput, never queue order.
    qr.deadline =
        cfg.qos.enabled && budget > 0 ? eq.now() + budget : 0;

    // Front door, stage 2: SLO prediction — but only for an arrival
    // that would actually queue; with a free slot and an empty queue
    // the delay is zero and admission is immediate.
    const bool wouldQueue =
        adm.live() >= adm.capacity() || adm.pendingCount() > 0;
    if (wouldQueue && cfg.shed.enabled && budget > 0) {
        const Tick residual =
            adm.live() >= adm.capacity() ? shedder.holdOf(c.label) / 2 : 0;
        const ShedDecision d = shedder.decide(
            queuedWorkAhead(qr.qosPriority), residual, adm.capacity(),
            budget);
        if (d.shed) {
            shedAtFrontDoor(*sessions[sid], d);
            scheduleNextArrival(cls);
            return;
        }
    }

    if (adm.arrive(qr)) {
        admitSession(sid);
    } else if (cfg.qos.enabled && cfg.qos.preemption &&
               adm.pendingCount() > 0) {
        // Queued interactive arrivals may displace a live batch
        // incarnation; the freed slot releases the queue's best
        // request (priority retries first, then this arrival by QoS
        // rank), so the preemption is never wasted on a worse pick.
        tryPreempt(qr.qosPriority);
    }

    scheduleNextArrival(cls);
}

void
ServeEngine::admitSession(std::uint64_t sid)
{
    SessionRecord &s = *sessions[sid];
    const ServeClass &c = classes[s.cls];
    // A session with more evictions than failovers is resuming after a
    // device failure; a preempted one resumes without counting as a
    // fault failover. Both restart the frozen departure clock.
    const bool faultResume = s.evictions > s.failovers;
    const bool resuming = faultResume || s.preemptResume;
    s.preemptResume = false;
    if (s.admitted < 0)
        s.admitted = eq.now();

    PlacementRequest req;
    req.label = s.label;
    req.affinityKey = c.affinityKey;
    req.demand = c.demand;

    // Steered placement consults the global clock; otherwise the
    // fleet's placement policy decides (consulted mid-run — load
    // snapshots now reflect arrivals and departures, not spawn order).
    Task *t = cfg.useGlobalClock
        ? &fleet.createTaskOn(clock.placeSteered(), req)
        : &fleet.createTask(req);

    s.task = t;
    s.device = fleet.deviceOf(*t);
    s.devices.push_back(s.device);
    trackPlaced(s);

    if (faultResume) {
        ++s.failovers;
        publish(SessionStep::Failover, s, s.evictions, s.retries);
    } else if (resuming) {
        publish(SessionStep::PreemptResume, s, s.preemptions);
    } else {
        publish(SessionStep::Admit, s, s.admitted - s.arrived);
    }

    startBody(s);

    if (resuming) {
        // The departure clock stopped at eviction; resume it from the
        // frozen remainder (none = infinite-lifetime session).
        if (s.remainingLifetime >= 0) {
            s.departAt = eq.now() + s.remainingLifetime;
            s.departureEv = eq.scheduleIn(
                s.remainingLifetime, [this, sid] { onDeparture(sid); });
            s.remainingLifetime = -1;
        }
    } else if (c.lifetime.finite()) {
        const Tick life = c.lifetime.sample(lifetimeRng);
        s.departAt = eq.now() + life;
        s.departureEv =
            eq.scheduleIn(life, [this, sid] { onDeparture(sid); });
    }
}

void
ServeEngine::startBody(SessionRecord &s)
{
    const ServeClass &c = classes[s.cls];
    fleet.startTask(*s.task, c.makeBody(*s.task, bodySeed(s)));
    ++s.incarnation;
}

std::uint64_t
ServeEngine::bodySeed(const SessionRecord &s) const
{
    // Distinct stream per (engine seed, session, incarnation) so a
    // migrated body replays different jitter than its predecessor.
    return (seed ^ ((s.id + 1) * 0x9e3779b97f4a7c15ull)) +
        0x1000ull * static_cast<std::uint64_t>(s.incarnation + 1);
}

void
ServeEngine::onDeparture(std::uint64_t sid)
{
    SessionRecord &s = *sessions[sid];
    if (s.done)
        return; // killed while the departure event was in flight
    if (!s.task)
        return; // evicted same-tick: the retry path owns this session
    if (s.task->killed())
        return; // same-tick kill: finalizeKill owns this session

    // Ahead of the retire, whose fleet and kernel records follow the
    // departure's, and of freeSlot, whose release admits the next
    // queued session after it.
    publish(SessionStep::Depart, s, eq.now() - s.arrived);
    untrackPlaced(s);
    // The fleet folds the usage after the teardown, so an aborted
    // in-flight request's occupancy is included.
    foldIncarnation(s, fleet.retireTask(*s.task));
    s.task = nullptr;
    s.departureEv = invalidEventId;
    s.departAt = -1;
    s.departed = eq.now();
    s.done = true;
    --nLive;
    if (s.admitted >= 0)
        shedder.noteHold(classes[s.cls].label, eq.now() - s.admitted);

    freeSlot(s.tenant);
}

void
ServeEngine::finalizeKill(std::uint64_t sid)
{
    SessionRecord &s = *sessions[sid];
    if (s.done)
        return;

    publish(SessionStep::Kill, s, eq.now() - s.arrived);
    // Killed tasks keep their Task, so the usage is read in place.
    if (s.task) {
        untrackPlaced(s);
        foldIncarnation(s, fleet.usageOf(*s.task));
    }
    eq.cancel(s.departureEv);
    s.departureEv = invalidEventId;
    eq.cancel(s.retryEv);
    s.retryEv = invalidEventId;
    s.departAt = -1;
    s.task = nullptr;
    s.departed = eq.now();
    s.done = true;
    s.killed = true;
    --nLive;
    if (s.admitted >= 0)
        shedder.noteHold(classes[s.cls].label, eq.now() - s.admitted);

    freeSlot(s.tenant);
}

void
ServeEngine::onEviction(Task &t)
{
    SessionRecord *sp = placedSessionOf(t);
    if (!sp) {
        // Not a live serve incarnation (already departing); let the
        // fleet's default disposition tear it down.
        fleet.retireTask(t);
        return;
    }
    SessionRecord &s = *sp;
    untrackPlaced(s);

    // Retire the incarnation on the dead device (its in-flight request
    // was already lost and charged by the device's forceDown), fold
    // its usage, then freeze the departure clock.
    foldIncarnation(s, fleet.retireTask(t));
    s.task = nullptr;
    ++s.evictions;

    if (s.departureEv != invalidEventId) {
        eq.cancel(s.departureEv);
        s.departureEv = invalidEventId;
        s.remainingLifetime = std::max<Tick>(0, s.departAt - eq.now());
        s.departAt = -1;
    } else {
        s.remainingLifetime = -1; // infinite lifetime stays infinite
    }

    publish(SessionStep::Evict, s, s.evictions, s.remainingLifetime);

    // The slot it held is returned (capacity already shrank via
    // onDeviceDown, so this normally releases nobody).
    freeSlot(s.tenant);
    scheduleRetry(s);
}

void
ServeEngine::onFleetCapacityChange()
{
    adm.setCapacity(slots * fleet.upDeviceCount());
}

void
ServeEngine::scheduleRetry(SessionRecord &s)
{
    if (s.retries >= cfg.retry.maxRetries) {
        shedSession(s);
        return;
    }
    // base << retries, saturated at the cap before the shift can pass
    // the width of Tick: on a hopeless fleet every backoff round bumps
    // retries, so it can outgrow any shift.
    const Tick base = cfg.retry.backoffBase;
    Tick backoff = cfg.retry.backoffCap;
    if (base > 0 && s.retries < 64 && base <= (backoff >> s.retries))
        backoff = base << s.retries;
    ++s.retries;

    const std::uint64_t sid = s.id;
    s.retryEv = eq.scheduleIn(backoff, [this, sid] { retryArrive(sid); });
    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
               "serve.retry_backoff",
               obs::TraceIds{-1, -1, static_cast<std::int32_t>(s.id)},
               s.retries, backoff);
}

void
ServeEngine::retryArrive(std::uint64_t sid)
{
    SessionRecord &s = *sessions[sid];
    s.retryEv = invalidEventId;
    if (s.done)
        return;

    // Hopeless fleet (everything down): burn another backoff round
    // rather than queueing toward capacity that may never return.
    if (fleet.upDeviceCount() == 0 || adm.capacity() == 0) {
        scheduleRetry(s);
        return;
    }

    // Past the hopeless-fleet check only: a re-backoff above stays in
    // the stall phase, while this point re-enters the admission queue.
    publish(SessionStep::RetryArrive, s, s.retries);
    const ServeClass &c = classes[s.cls];
    QueuedRequest qr;
    qr.session = sid;
    qr.tenant = s.tenant;
    qr.demand = c.demand;
    qr.enqueued = eq.now();
    qr.cls = s.cls;
    qr.priority = true;
    if (adm.arrive(qr))
        admitSession(sid);
    // else: queued at priority; a departure or repair releases it.
}

void
ServeEngine::shedSession(SessionRecord &s)
{
    eq.cancel(s.retryEv);
    s.retryEv = invalidEventId;
    adm.removePending(s.id);
    s.remainingLifetime = -1;
    s.shed = true;
    s.done = true;
    --nLive;
    publish(SessionStep::Shed, s, s.retries, eq.now() - s.arrived);
}

void
ServeEngine::throttleSession(SessionRecord &s)
{
    s.throttled = true;
    s.done = true;
    --nLive;
    publish(SessionStep::Throttle, s, limiter.throttledOf(s.tenant));
}

void
ServeEngine::shedAtFrontDoor(SessionRecord &s, const ShedDecision &d)
{
    s.shed = true;
    s.shedPredicted = true;
    s.done = true;
    --nLive;
    publish(SessionStep::ShedPredicted, s, d.predicted, d.budget);
}

Tick
ServeEngine::queuedWorkAhead(int rank) const
{
    // Only work that would release before (or tied with) an arrival of
    // @p rank delays it: with QoS on, an interactive request jumps the
    // batch backlog, so batch holds must not inflate its prediction.
    // With QoS off every request carries rank 0 and all queued work
    // counts, exactly the rank-blind model. Holds move with every
    // departure, so the sum is rebuilt from the controller's per-class
    // counts and the current holds: O(classes), not O(queue).
    Tick work = 0;
    for (std::size_t c = 0; c < classes.size(); ++c) {
        if (const std::size_t n = adm.queuedThrough(rank, c))
            work += static_cast<Tick>(n) * shedder.holdOf(classes[c].label);
    }
    return work;
}

Tick
ServeEngine::queueBudgetOf(std::size_t cls) const
{
    const Tick own = classes[cls].queueBudget;
    return own > 0 ? own : cfg.slo.queueTarget;
}

bool
ServeEngine::meetsSlo(std::size_t cls, Tick arrived, Tick admitted,
                      Tick departed) const
{
    const Tick sojourn = cfg.slo.sojournTarget;
    if (sojourn > 0 && departed - admitted > sojourn)
        return false;
    const Tick budget = queueBudgetOf(cls);
    return budget <= 0 || admitted - arrived <= budget;
}

double
ServeEngine::serviceRate(const ServeSessionResult &s, Tick busy,
                         Tick residency) const
{
    double speed = 1.0;
    if (!s.devices.empty()) {
        speed = fleet.stack(s.devices.back()).device.config().speedFactor;
        if (speed <= 0.0)
            speed = 1.0;
    }
    return static_cast<double>(busy) * speed /
        static_cast<double>(residency);
}

int
ServeEngine::qosRankOf(std::size_t cls) const
{
    return cfg.qos.enabled ? qosPriorityOf(classes[cls].qos) : 0;
}

bool
ServeEngine::tryPreempt(int arrivingRank)
{
    // Transient free capacity (device repair mid-queue) beats paying
    // for a preemption.
    if (auto released = adm.releaseIfFree()) {
        admitSession(released->session);
        return true;
    }

    const SessionRecord *victim = preemptionVictim(arrivingRank);
    if (!victim)
        return false;

    preemptSession(*sessions[victim->id]);
    return true;
}

const SessionRecord *
ServeEngine::preemptionVictim(int arriving_rank) const
{
    // Victim: the lowest-priority live incarnation, youngest first
    // (least sunk service wasted), strictly below the arriving rank:
    // the largest key. Every tie breaks on session state only. A task
    // killed on its device stays placed until its kill is finalized
    // at the barrier; it is skipped, not displaced.
    for (auto it = preemptible.rbegin(); it != preemptible.rend(); ++it) {
        const auto &[rank, admitted, sid] = *it;
        if (rank <= arriving_rank)
            break;
        const SessionRecord &s = *sessions[sid];
        if (!s.done && s.task->alive())
            return &s;
    }
    return nullptr;
}

void
ServeEngine::preemptSession(SessionRecord &s)
{
    // Identical bookkeeping to a fault eviction — retire the
    // incarnation (folding its exact meter usage), freeze the
    // departure clock — except the requeue is a plain backoff, not a
    // retry: preemption never burns the fault-retry budget.
    untrackPlaced(s);
    foldIncarnation(s, fleet.retireTask(*s.task));
    s.task = nullptr;
    ++s.preemptions;
    s.preemptResume = true;

    if (s.departureEv != invalidEventId) {
        eq.cancel(s.departureEv);
        s.departureEv = invalidEventId;
        s.remainingLifetime = std::max<Tick>(0, s.departAt - eq.now());
        s.departAt = -1;
    } else {
        s.remainingLifetime = -1;
    }

    publish(SessionStep::Preempt, s, s.preemptions, s.remainingLifetime);

    // The freed slot releases the queue's best request — the
    // preemption-causing interactive, unless a priority retry or an
    // earlier-deadline peer outranks it (all deterministic).
    freeSlot(s.tenant);

    const std::uint64_t sid = s.id;
    s.retryEv = eq.scheduleIn(cfg.qos.preemptionBackoff,
                              [this, sid] { preemptRequeue(sid); });
}

void
ServeEngine::preemptRequeue(std::uint64_t sid)
{
    SessionRecord &s = *sessions[sid];
    s.retryEv = invalidEventId;
    if (s.done)
        return;

    // Hopeless fleet mid-backoff: fall into the fault plane's capped
    // retry loop rather than queueing toward zero capacity.
    if (fleet.upDeviceCount() == 0 || adm.capacity() == 0) {
        scheduleRetry(s);
        return;
    }

    publish(SessionStep::PreemptRequeue, s, s.preemptions);

    const ServeClass &c = classes[s.cls];
    const Tick budget = queueBudgetOf(s.cls);
    QueuedRequest qr;
    qr.session = sid;
    qr.tenant = s.tenant;
    qr.demand = c.demand;
    qr.enqueued = eq.now();
    qr.qosPriority = qosRankOf(s.cls);
    qr.cls = s.cls;
    qr.deadline =
        cfg.qos.enabled && budget > 0 ? eq.now() + budget : 0;
    // No priority flag: a preempted batch session re-queues behind
    // interactive traffic by rank, or preemption would just thrash.
    if (adm.arrive(qr))
        admitSession(sid);
}

void
ServeEngine::freeSlot(const std::string &tenant)
{
    if (auto released = adm.depart(tenant))
        admitSession(released->session);
}

void
ServeEngine::trackPlaced(SessionRecord &s)
{
    s.placedSlot = placed.size();
    placed.push_back(s.id);
    if (cfg.qos.enabled && cfg.qos.preemption)
        preemptible.emplace(qosRankOf(s.cls), s.admitted, s.id);
}

void
ServeEngine::untrackPlaced(SessionRecord &s)
{
    const std::uint64_t moved = placed.back();
    placed[s.placedSlot] = moved;
    sessions[moved]->placedSlot = s.placedSlot;
    placed.pop_back();
    if (cfg.qos.enabled && cfg.qos.preemption)
        preemptible.erase({qosRankOf(s.cls), s.admitted, s.id});
}

SessionRecord *
ServeEngine::placedSessionOf(const Task &t)
{
    // O(open incarnations): only kills and device failures ask.
    for (const std::uint64_t sid : placed) {
        if (sessions[sid]->task == &t)
            return sessions[sid].get();
    }
    return nullptr;
}

void
ServeEngine::onClockTick()
{
    // Drain discount for the shed predictor: the aggregate speed of
    // the up devices over the whole fleet's nominal speed. Slot
    // capacity already shrinks with down devices, so this corrects
    // for the *quality* of the surviving slots (losing the fast
    // devices makes the queue drain slower than the count suggests).
    if (cfg.shed.enabled) {
        double upSpeed = 0.0;
        double allSpeed = 0.0;
        for (const DeviceClockSample &d : clock.sample()) {
            allSpeed += d.speedFactor;
            if (d.up)
                upSpeed += d.speedFactor;
        }
        if (allSpeed > 0.0)
            shedder.noteDrainRatio(upSpeed / allSpeed);
    }

    tryMigrate();
    eq.scheduleIn(cfg.clockPeriod, [this] { onClockTick(); });
}

void
ServeEngine::tryMigrate()
{
    if (cfg.migrationLag <= 0)
        return;

    const MigrationPlan plan =
        clock.checkMigration(cfg.migrationLag, cfg.migrationMinTasks);
    if (!plan.migrate)
        return;

    // Victim: the source device's locally most-ahead session — under
    // DFQ it is the one most likely to be denied there, and the target
    // device's higher system vtime absorbs it without denial.
    const VirtualTimeTap *tap = fleet.stack(plan.from).vtimeTap;
    SessionRecord *victim = nullptr;
    Tick victim_v = 0;
    // The placed table holds exactly the open incarnations, so this
    // scan is O(placed sessions), not O(sessions ever created). Its
    // order is arbitrary, so vtime ties break on the session id.
    for (const std::uint64_t sid : placed) {
        SessionRecord &s = *sessions[sid];
        if (s.done || s.device != plan.from || !s.task->alive())
            continue;
        const Tick v = tap ? tap->tapTaskVtime(s.task->pid()) : 0;
        if (!victim || v > victim_v ||
            (v == victim_v && s.id < victim->id)) {
            victim = &s;
            victim_v = v;
        }
    }
    if (!victim)
        return;

    // The fleet retires the old incarnation (charging any aborted
    // in-flight occupancy to its pid) and folds its usage. The
    // session keeps its slot in the placed table.
    IncarnationUsage folded;
    Task &nt = fleet.migrateTask(*victim->task, plan.to, folded);
    foldIncarnation(*victim, folded);
    victim->task = &nt;
    victim->device = plan.to;
    victim->devices.push_back(plan.to);
    ++victim->migrations;
    publish(SessionStep::Migrate, *victim, plan.from, plan.to, plan.lag);

    startBody(*victim);
    // The session's departure event is untouched: lifetime is wall
    // time in the system, not time on any one device.
}

void
ServeEngine::publish(SessionStep step, const SessionRecord &s,
                     std::int64_t arg0, std::int64_t arg1,
                     std::int64_t hop_arg)
{
    static const StepNames names = internStepNames();
    const std::size_t i = static_cast<std::size_t>(step);
    const SessionStepRow &row = sessionSteps[i];
    ++tally[i];
    const obs::TraceIds ids{
        row.onDevice ? static_cast<std::int16_t>(s.device) : std::int16_t{-1},
        s.task ? s.task->pid() : -1, static_cast<std::int32_t>(s.id)};
    obs::traceRecord(row.cat, names.step[i], row.kind, ids, arg0, arg1);
    if (row.hop != NoHop)
        obs::traceRecord(Serve, names.flow, row.hop, ids, hop_arg, 0);
    if (row.endsSpan)
        obs::traceRecord(Serve, names.span, obs::TraceKind::AsyncEnd, ids, 0,
                         0);

    const SessionEvent e{row.event, eq.now(), s.id, ids.device, s.cls};
    for (const auto &fn : listeners)
        fn(e);
}

void
ServeEngine::addSessionListener(std::function<void(const SessionEvent &)> fn)
{
    listeners.push_back(std::move(fn));
}

void
ServeEngine::visitSessions(
    const std::function<void(const SessionRecord &, Tick, std::uint64_t)>
        &fn) const
{
    for (const auto &sp : sessions) {
        Tick busy = sp->busy;
        std::uint64_t reqs = sp->requests;
        if (sp->task) {
            // Open incarnation: fresh pid, so the meter's per-pid
            // counters are exactly its usage.
            const UsageMeter::Usage u =
                fleet.stack(sp->device).meter.usageOf(sp->task->pid());
            busy += u.busy;
            reqs += u.requests;
        }
        fn(*sp, busy, reqs);
    }
}

std::vector<ServeSessionResult>
ServeEngine::sessionResults() const
{
    std::vector<ServeSessionResult> out;
    out.reserve(sessions.size());
    for (const auto &sp : sessions) {
        out.push_back(*sp); // the outcome half
        if (sp->task)
            foldIncarnation(out.back(), fleet.usageOf(*sp->task)); // open
    }
    return out;
}

} // namespace neon
