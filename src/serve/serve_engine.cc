#include "serve/serve_engine.hh"

#include <algorithm>
#include <utility>

#include "obs/trace.hh"
#include "sched/vtime_tap.hh"
#include "sim/logging.hh"

namespace neon
{

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
        auto it = byTask.find(&t);
        if (it == byTask.end())
            return;
        const std::uint64_t sid = it->second;
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
    s->label = c.label + "#" + std::to_string(nArrivals);
    s->tenant = c.tenant.empty() ? c.label : c.tenant;
    s->arrived = eq.now();
    sessions.push_back(std::move(s));

    ++nArrivals;
    ++nLive;
    if (nLive > peakLive)
        peakLive = nLive;

    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::AsyncBegin,
               "session",
               obs::TraceIds{-1, -1, static_cast<std::int32_t>(sid)},
               cls, nLive);
    emitSession(SessionEvent::Kind::Arrive, *sessions[sid]);

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
    byTask[t] = sid;

    const obs::TraceIds admit_ids{static_cast<std::int16_t>(s.device),
                                  t->pid(),
                                  static_cast<std::int32_t>(sid)};
    if (faultResume) {
        ++s.failovers;
        ++nFailovers;
        NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
                   "serve.failover", admit_ids, s.evictions, s.retries);
        NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::FlowStep,
                   "session.flow", admit_ids, 0, 0);
    } else if (resuming) {
        NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
                   "serve.preempt_resume", admit_ids, s.preemptions, 0);
        NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::FlowStep,
                   "session.flow", admit_ids, 0, 0);
    } else {
        NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
                   "serve.admit", admit_ids, s.admitted - s.arrived, 0);
        NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::FlowStart,
                   "session.flow", admit_ids, 0, 0);
    }
    emitSession(SessionEvent::Kind::Admit, s,
                static_cast<std::int32_t>(s.device));

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

    {
        const obs::TraceIds depart_ids{static_cast<std::int16_t>(s.device),
                                       s.task->pid(),
                                       static_cast<std::int32_t>(sid)};
        NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
                   "serve.depart", depart_ids, eq.now() - s.arrived, 0);
        NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::FlowEnd,
                   "session.flow", depart_ids, 0, 0);
        NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::AsyncEnd,
                   "session", depart_ids, 0, 0);
    }
    byTask.erase(s.task);
    // Retire first: aborting an in-flight request charges its device
    // occupancy to this pid, and the snapshot must include it.
    fleet.retireTask(*s.task);
    endIncarnation(s);
    s.task = nullptr;
    s.departureEv = invalidEventId;
    s.departAt = -1;
    s.departed = eq.now();
    s.done = true;
    --nLive;
    ++nDepartures;
    if (s.admitted >= 0)
        shedder.noteHold(classes[s.cls].label, eq.now() - s.admitted);
    // Before freeSlot: a release there admits the next queued session,
    // and its Admit must follow this Depart in listener order.
    emitSession(SessionEvent::Kind::Depart, s);

    freeSlot(s.tenant);
}

void
ServeEngine::finalizeKill(std::uint64_t sid)
{
    SessionRecord &s = *sessions[sid];
    if (s.done)
        return;

    {
        const obs::TraceIds kill_ids{static_cast<std::int16_t>(s.device),
                                     s.task ? s.task->pid() : -1,
                                     static_cast<std::int32_t>(sid)};
        NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
                   "serve.session_killed", kill_ids, eq.now() - s.arrived,
                   0);
        NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::FlowEnd,
                   "session.flow", kill_ids, 0, 0);
        NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::AsyncEnd,
                   "session", kill_ids, 0, 0);
    }
    endIncarnation(s);
    byTask.erase(s.task);
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
    ++nKilled;
    if (s.admitted >= 0)
        shedder.noteHold(classes[s.cls].label, eq.now() - s.admitted);
    emitSession(SessionEvent::Kind::Kill, s);

    freeSlot(s.tenant);
}

void
ServeEngine::onEviction(Task &t)
{
    auto it = byTask.find(&t);
    if (it == byTask.end()) {
        // Not a live serve incarnation (already departing); let the
        // fleet's default disposition tear it down.
        fleet.retireTask(t);
        return;
    }
    const std::uint64_t sid = it->second;
    SessionRecord &s = *sessions[sid];
    byTask.erase(it);

    // Retire the incarnation on the dead device (its in-flight request
    // was already lost and charged by the device's forceDown), snapshot
    // its usage, then freeze the departure clock.
    fleet.retireTask(t);
    endIncarnation(s);
    s.task = nullptr;
    ++s.evictions;
    ++nEvicted;

    if (s.departureEv != invalidEventId) {
        eq.cancel(s.departureEv);
        s.departureEv = invalidEventId;
        s.remainingLifetime = std::max<Tick>(0, s.departAt - eq.now());
        s.departAt = -1;
    } else {
        s.remainingLifetime = -1; // infinite lifetime stays infinite
    }

    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
               "serve.evict",
               obs::TraceIds{static_cast<std::int16_t>(s.device), -1,
                             static_cast<std::int32_t>(sid)},
               s.evictions, s.remainingLifetime);
    emitSession(SessionEvent::Kind::Evict, s,
                static_cast<std::int32_t>(s.device));

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
    Tick backoff = cfg.retry.backoffBase << s.retries;
    if (backoff > cfg.retry.backoffCap || backoff <= 0)
        backoff = cfg.retry.backoffCap;
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

    ++nRetries;
    // Past the hopeless-fleet check only: a re-backoff above stays in
    // the stall phase, while this point re-enters the admission queue.
    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
               "serve.retry_arrive",
               obs::TraceIds{-1, -1, static_cast<std::int32_t>(sid)},
               s.retries, 0);
    emitSession(SessionEvent::Kind::RetryEnqueue, s);
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
    ++nShed;

    const obs::TraceIds shed_ids{-1, -1,
                                 static_cast<std::int32_t>(s.id)};
    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
               "serve.shed", shed_ids, s.retries, eq.now() - s.arrived);
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::FlowEnd,
               "session.flow", shed_ids, 0, 0);
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::AsyncEnd,
               "session", shed_ids, 0, 0);
    emitSession(SessionEvent::Kind::Shed, s);
}

void
ServeEngine::throttleSession(SessionRecord &s)
{
    s.throttled = true;
    s.done = true;
    --nLive;
    ++nThrottled;

    const obs::TraceIds ids{-1, -1, static_cast<std::int32_t>(s.id)};
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
               "serve.throttle", ids,
               limiter.throttledOf(s.tenant), 0);
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::AsyncEnd,
               "session", ids, 0, 0);
    emitSession(SessionEvent::Kind::Throttle, s);
}

void
ServeEngine::shedAtFrontDoor(SessionRecord &s, const ShedDecision &d)
{
    s.shed = true;
    s.shedPredicted = true;
    s.done = true;
    --nLive;
    ++nShed;
    ++nShedPredicted;

    const obs::TraceIds ids{-1, -1, static_cast<std::int32_t>(s.id)};
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
               "serve.shed_predicted", ids, d.predicted, d.budget);
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::AsyncEnd,
               "session", ids, 0, 0);
    emitSession(SessionEvent::Kind::Shed, s);
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

    // Victim: the lowest-priority live incarnation, youngest first
    // (least sunk service wasted), strictly below the arriving rank.
    // byTask is keyed by task address, so every tie must break on
    // session state only — never map order (heap layout varies).
    SessionRecord *victim = nullptr;
    for (const auto &kv : byTask) {
        SessionRecord &s = *sessions[kv.second];
        if (s.done || !s.task || !s.task->alive())
            continue;
        const int rank = qosRankOf(s.cls);
        if (rank <= arrivingRank)
            continue;
        if (!victim || rank > qosRankOf(victim->cls) ||
            (rank == qosRankOf(victim->cls) &&
             (s.admitted > victim->admitted ||
              (s.admitted == victim->admitted && s.id > victim->id)))) {
            victim = &s;
        }
    }
    if (!victim)
        return false;

    preemptSession(*victim);
    return true;
}

void
ServeEngine::preemptSession(SessionRecord &s)
{
    // Identical bookkeeping to a fault eviction — retire the
    // incarnation (folding its exact meter usage), freeze the
    // departure clock — except the requeue is a plain backoff, not a
    // retry: preemption never burns the fault-retry budget.
    byTask.erase(s.task);
    fleet.retireTask(*s.task);
    endIncarnation(s);
    s.task = nullptr;
    ++s.preemptions;
    ++nPreemptions;
    s.preemptResume = true;

    if (s.departureEv != invalidEventId) {
        eq.cancel(s.departureEv);
        s.departureEv = invalidEventId;
        s.remainingLifetime = std::max<Tick>(0, s.departAt - eq.now());
        s.departAt = -1;
    } else {
        s.remainingLifetime = -1;
    }

    const obs::TraceIds ids{static_cast<std::int16_t>(s.device), -1,
                            static_cast<std::int32_t>(s.id)};
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
               "serve.preempt", ids, s.preemptions, s.remainingLifetime);
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::FlowStep,
               "session.flow", ids, 0, 0);
    emitSession(SessionEvent::Kind::Preempt, s,
                static_cast<std::int32_t>(s.device));

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

    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
               "serve.preempt_requeue",
               obs::TraceIds{-1, -1, static_cast<std::int32_t>(sid)},
               s.preemptions, 0);
    emitSession(SessionEvent::Kind::RetryEnqueue, s);

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
ServeEngine::foldIncarnationUsage(SessionRecord &s) const
{
    // Incarnations get fresh pids, so the meter's per-pid counters are
    // exactly this incarnation's usage — no baseline arithmetic.
    const UsageMeter &m = fleet.stack(s.device).meter;
    const int pid = s.task->pid();
    s.busy += m.busyOf(pid);
    s.requests += m.requestsOf(pid);
    const Accum &rounds = s.task->roundTimes();
    s.roundUsSum += rounds.mean() * static_cast<double>(rounds.count());
    s.rounds += rounds.count();
}

void
ServeEngine::endIncarnation(SessionRecord &s)
{
    if (!s.task)
        return;
    foldIncarnationUsage(s);
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
    if (cfg.migrationBudget > 0 && nMigrations >= cfg.migrationBudget)
        return;

    const MigrationPlan plan =
        clock.checkMigration(cfg.migrationLag, cfg.migrationMinTasks);
    if (!plan.migrate)
        return;

    // Victim: the source device's locally most-ahead session — under
    // DFQ it is the one most likely to be denied there, and the target
    // device's higher system vtime absorbs it without denial.
    const auto *tap = dynamic_cast<const VirtualTimeTap *>(
        fleet.stack(plan.from).sched.get());
    SessionRecord *victim = nullptr;
    Tick victim_v = 0;
    // byTask holds exactly the live incarnations, so this scan is
    // O(placed sessions), not O(sessions ever created). byTask is
    // keyed by task address, so vtime ties must break on the session
    // id — address order varies with heap layout and would make the
    // pick depend on unrelated allocations (e.g. tracing being on).
    for (const auto &kv : byTask) {
        SessionRecord &s = *sessions[kv.second];
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

    byTask.erase(victim->task);
    // Migrate first (retires the old incarnation, charging any aborted
    // in-flight occupancy to its pid), then snapshot it.
    Task &nt = fleet.migrateTask(*victim->task, plan.to);
    endIncarnation(*victim);
    victim->task = &nt;
    victim->device = plan.to;
    victim->devices.push_back(plan.to);
    ++victim->migrations;
    ++nMigrations;
    byTask[&nt] = victim->id;

    const obs::TraceIds mig_ids{static_cast<std::int16_t>(plan.to),
                                nt.pid(),
                                static_cast<std::int32_t>(victim->id)};
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
               "serve.migrate", mig_ids, plan.from, plan.to);
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::FlowStep,
               "session.flow", mig_ids, plan.lag, 0);
    emitSession(SessionEvent::Kind::Migrate, *victim,
                static_cast<std::int32_t>(plan.to));

    startBody(*victim);
    // The session's departure event is untouched: lifetime is wall
    // time in the system, not time on any one device.
}

void
ServeEngine::emitSession(SessionEvent::Kind kind, const SessionRecord &s,
                         std::int32_t device)
{
    if (listeners.empty())
        return;
    SessionEvent e;
    e.kind = kind;
    e.when = eq.now();
    e.session = s.id;
    e.device = device;
    e.cls = s.cls;
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
            // counters are exactly its usage (see foldIncarnationUsage).
            const UsageMeter &m = fleet.stack(sp->device).meter;
            const int pid = sp->task->pid();
            busy += m.busyOf(pid);
            reqs += m.requestsOf(pid);
        }
        fn(*sp, busy, reqs);
    }
}

std::vector<SessionRecord>
ServeEngine::sessionResults() const
{
    std::vector<SessionRecord> out;
    out.reserve(sessions.size());
    for (const auto &sp : sessions) {
        SessionRecord s = *sp; // copy
        if (s.task)
            foldIncarnationUsage(s); // open incarnation, not closed
        out.push_back(std::move(s));
    }
    return out;
}

} // namespace neon
