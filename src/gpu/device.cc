#include "gpu/device.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace neon
{

GpuDevice::GpuDevice(EventQueue &eq, const DeviceConfig &cfg,
                     UsageMeter &meter)
    : eq(eq), cfg(cfg), meter(meter),
      engines{Engine(EngineKind::Execute), Engine(EngineKind::Copy)}
{
    if (cfg.speedFactor <= 0.0)
        panic("device: speedFactor must be positive, got ",
              cfg.speedFactor);
}

GpuContext *
GpuDevice::createContext(int task_id)
{
    contexts.push_back(std::make_unique<GpuContext>(nextCtxId++, task_id));
    return contexts.back().get();
}

void
GpuDevice::destroyContext(GpuContext *ctx)
{
    if (!ctx)
        return;
    if (!ctx->channels().empty())
        panic("destroying context ", ctx->id(), " with live channels");
    std::erase_if(contexts, [ctx](const std::unique_ptr<GpuContext> &p) {
        return p.get() == ctx;
    });
}

Channel *
GpuDevice::createChannel(GpuContext &ctx, RequestClass cls)
{
    if (liveChannels >= cfg.maxChannels)
        return nullptr; // device channel pool exhausted

    channels.push_back(std::make_unique<Channel>(
        nextChanId++, ctx, cls, cfg.ringCapacity));
    Channel *c = channels.back().get();
    ctx.addChannel(c);
    engineOf(c->engine()).arb.registerChannel(c);
    ++liveChannels;
    return c;
}

void
GpuDevice::destroyChannel(Channel *c)
{
    if (!c)
        return;
    if (c->busyOnDevice())
        panic("destroying channel ", c->id(), " while busy; abort first");

    engineOf(c->engine()).arb.removeChannel(c);
    c->context().removeChannel(c);
    std::erase_if(channels, [c](const std::unique_ptr<Channel> &p) {
        return p.get() == c;
    });
    --liveChannels;
}

void
GpuDevice::submit(Channel &c, GpuRequest req)
{
    if (!c.ring().push(req))
        panic("ring buffer overflow on channel ", c.id());
    c.noteSubmitted(req.ref);

    if (traceSubmit)
        traceSubmit(c, req, eq.now());

    tryDispatch(engineOf(c.engine()));
}

void
GpuDevice::tryDispatch(Engine &e)
{
    if (e.busy || health_ != DeviceHealth::Up)
        return;

    Channel *c = e.arb.pick();
    if (!c)
        return;

    GpuRequest req = c->ring().pop();

    // The command fetcher drains consecutive trivial (state-change)
    // entries together with the request that follows them in the same
    // ring — the device does not rearbitrate after every tiny entry.
    while (req.cls == RequestClass::Trivial && !c->ring().empty()) {
        GpuRequest next = c->ring().pop();
        next.serviceTime += req.serviceTime;
        req = next;
    }

    // An armed hang fault turns this request infinite at dispatch.
    if (c->hangArmed) {
        c->hangArmed = false;
        req.serviceTime = maxTick;
    }

    // The very first dispatch after power-on pays no switch penalty.
    Tick switch_cost = 0;
    if (e.lastContext != -1) {
        if (e.lastContext != c->context().id())
            switch_cost = cfg.contextSwitchCost;
        else if (e.lastChannel != c->id())
            switch_cost = cfg.channelSwitchCost;

        // Crossing between the graphics and compute pipelines costs
        // extra on the execute engine (trivia inherit their channel's
        // side of the fence).
        if (e.kind == EngineKind::Execute) {
            const bool was_gfx =
                e.lastClass == RequestClass::Graphics;
            const bool is_gfx =
                c->channelClass() == RequestClass::Graphics;
            if (was_gfx != is_gfx)
                switch_cost += cfg.pipelineSwitchCost;
        }
    }
    if (switch_cost > 0)
        meter.recordSwitch(switch_cost);

    const obs::TraceIds dispatch_ids{devIndex, c->context().taskId(), -1};
    if (e.kind == EngineKind::Execute) {
        NEON_TRACE(obs::TraceCategory::Device, obs::TraceKind::Begin,
                   "engine.exec", dispatch_ids, req.serviceTime,
                   switch_cost);
    } else {
        NEON_TRACE(obs::TraceCategory::Device, obs::TraceKind::Begin,
                   "engine.dma", dispatch_ids, req.serviceTime,
                   switch_cost);
    }

    e.lastContext = c->context().id();
    e.lastChannel = c->id();
    e.lastClass = c->channelClass();
    e.busy = true;
    e.current = c;
    e.active = req;
    e.serviceStart = eq.now() + switch_cost;
    c->setBusyOnDevice(true);

    if (!req.isInfinite()) {
        // Heterogeneous fleets: a faster device completes the same
        // request in proportionally less wall time. Only the execute
        // engine scales — DMA is interconnect-bound, like the switch
        // and cleanup costs.
        Tick service = req.serviceTime;
        if (cfg.speedFactor != 1.0 && e.kind == EngineKind::Execute) {
            service = std::max<Tick>(
                1, static_cast<Tick>(static_cast<double>(service) /
                                     cfg.speedFactor));
        }
        // Hot path: one completion event per dispatched request.
        auto completion = [this, &e] { finish(e); };
        static_assert(EventCallback::fitsInline<decltype(completion)>);
        e.completionAt = e.serviceStart + service;
        e.completionEvent =
            eq.schedule(e.completionAt, std::move(completion));
    } else {
        e.completionEvent = invalidEventId;
    }
}

void
GpuDevice::finish(Engine &e)
{
    Channel *c = e.current;
    const GpuRequest req = e.active;
    const Tick end = eq.now();
    const Tick service = end - e.serviceStart;
    const int task_id = c->context().taskId();

    meter.recordRequest(task_id, service, req.cls);

    const obs::TraceIds finish_ids{devIndex, task_id, -1};
    if (e.kind == EngineKind::Execute) {
        NEON_TRACE(obs::TraceCategory::Device, obs::TraceKind::End,
                   "engine.exec", finish_ids, service, req.ref);
    } else {
        NEON_TRACE(obs::TraceCategory::Device, obs::TraceKind::End,
                   "engine.dma", finish_ids, service, req.ref);
    }

    e.busy = false;
    e.current = nullptr;
    e.completionEvent = invalidEventId;
    c->setBusyOnDevice(false);

    if (traceComplete)
        traceComplete(*c, req, e.serviceStart, end);

    // Reference-counter write: user spinners wake now; the kernel only
    // notices at its next poll.
    c->complete(req.ref);
    if (c->kernelCompletionHook)
        c->kernelCompletionHook(req.ref, end, service);

    tryDispatch(e);
}

void
GpuDevice::abortChannel(Channel &c)
{
    Engine &e = engineOf(c.engine());

    if (e.busy && e.current == &c) {
        if (e.completionEvent != invalidEventId) {
            eq.cancel(e.completionEvent);
            e.completionEvent = invalidEventId;
        }

        // The aborted request did occupy the device until now.
        const Tick occupied =
            std::max<Tick>(0, eq.now() - e.serviceStart);
        meter.recordBusy(c.context().taskId(), occupied, e.active.cls);

        const obs::TraceIds abort_ids{devIndex, c.context().taskId(), -1};
        if (e.kind == EngineKind::Execute) {
            NEON_TRACE(obs::TraceCategory::Device, obs::TraceKind::End,
                       "engine.exec", abort_ids, occupied, 0);
        } else {
            NEON_TRACE(obs::TraceCategory::Device, obs::TraceKind::End,
                       "engine.dma", abort_ids, occupied, 0);
        }
        NEON_TRACE(obs::TraceCategory::Device, obs::TraceKind::Instant,
                   "engine.abort", abort_ids, c.id(), 0);

        e.current = nullptr;
        e.pausedRemaining = -1;
        c.setBusyOnDevice(false);

        // Engine stays busy for the cleanup period, then resumes.
        eq.scheduleIn(cfg.abortCleanupCost, [this, &e] {
            e.busy = false;
            tryDispatch(e);
        });
    }

    c.ring().clear();
}

void
GpuDevice::stall(Tick duration)
{
    if (health_ == DeviceHealth::Down || duration <= 0)
        return;

    const Tick until = eq.now() + duration;
    if (health_ == DeviceHealth::Degraded) {
        // Overlapping stall: extend the existing window if it is longer.
        if (until > stallUntil) {
            eq.cancel(stallResumeEvent);
            stallUntil = until;
            stallResumeEvent =
                eq.schedule(stallUntil, [this] { resumeFromStall(); });
        }
        return;
    }

    health_ = DeviceHealth::Degraded;
    stallUntil = until;
    pauseStart = eq.now();

    // Freeze in-flight finite requests: remember how much service each
    // had left and cancel its completion. Infinite (hung) requests have
    // no completion to pause; they keep occupying the engine.
    for (Engine &e : engines) {
        if (e.busy && e.completionEvent != invalidEventId) {
            eq.cancel(e.completionEvent);
            e.completionEvent = invalidEventId;
            e.pausedRemaining = std::max<Tick>(0, e.completionAt - eq.now());
        }
    }

    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Begin,
               "dev.stall", obs::TraceIds{devIndex, -1, -1}, duration, 0);

    stallResumeEvent =
        eq.schedule(stallUntil, [this] { resumeFromStall(); });
}

void
GpuDevice::resumeFromStall()
{
    stallResumeEvent = invalidEventId;
    health_ = DeviceHealth::Up;

    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::End,
               "dev.stall", obs::TraceIds{devIndex, -1, -1},
               eq.now() - pauseStart, 0);

    // Thaw paused requests: shift their service window by the pause so
    // accounting at finish() charges only true execution time.
    const Tick paused = eq.now() - pauseStart;
    for (Engine &e : engines) {
        if (e.busy && e.pausedRemaining >= 0) {
            Engine *ep = &e;
            e.serviceStart += paused;
            e.completionAt = eq.now() + e.pausedRemaining;
            e.pausedRemaining = -1;
            e.completionEvent =
                eq.schedule(e.completionAt, [this, ep] { finish(*ep); });
        }
    }
    for (Engine &e : engines)
        tryDispatch(e);
}

void
GpuDevice::forceDown()
{
    if (health_ == DeviceHealth::Down)
        return;
    if (health_ == DeviceHealth::Degraded) {
        eq.cancel(stallResumeEvent);
        stallResumeEvent = invalidEventId;
    }
    health_ = DeviceHealth::Down;

    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
               "dev.down", obs::TraceIds{devIndex, -1, -1}, 0, 0);

    // In-flight requests are lost — their reference counters never
    // advance — but the time they occupied the engines is real and is
    // charged to their tasks, so usage meters reconcile exactly.
    for (Engine &e : engines) {
        if (!e.busy || !e.current)
            continue;
        if (e.completionEvent != invalidEventId) {
            eq.cancel(e.completionEvent);
            e.completionEvent = invalidEventId;
        }
        const Tick effective_end =
            e.pausedRemaining >= 0 ? pauseStart : eq.now();
        const Tick occupied =
            std::max<Tick>(0, effective_end - e.serviceStart);
        const int task_id = e.current->context().taskId();
        meter.recordBusy(task_id, occupied, e.active.cls);

        const obs::TraceIds lost_ids{devIndex, task_id, -1};
        if (e.kind == EngineKind::Execute) {
            NEON_TRACE(obs::TraceCategory::Device, obs::TraceKind::End,
                       "engine.exec", lost_ids, occupied, 0);
        } else {
            NEON_TRACE(obs::TraceCategory::Device, obs::TraceKind::End,
                       "engine.dma", lost_ids, occupied, 0);
        }
        NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
                   "dev.lost_request", lost_ids, e.current->id(), 0);

        e.current->setBusyOnDevice(false);
        e.current = nullptr;
        e.busy = false;
        e.pausedRemaining = -1;
    }
}

void
GpuDevice::repair()
{
    if (health_ != DeviceHealth::Down)
        return;
    health_ = DeviceHealth::Up;

    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
               "dev.repair", obs::TraceIds{devIndex, -1, -1}, 0, 0);

    for (Engine &e : engines)
        tryDispatch(e);
}

void
GpuDevice::injectHang(Channel &c)
{
    Engine &e = engineOf(c.engine());
    if (e.busy && e.current == &c) {
        if (e.completionEvent != invalidEventId) {
            eq.cancel(e.completionEvent);
            e.completionEvent = invalidEventId;
        }
        e.active.serviceTime = maxTick;
        e.pausedRemaining = -1;
    } else {
        c.hangArmed = true;
    }
    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
               "dev.hang_inject",
               obs::TraceIds{devIndex, c.context().taskId(), -1}, c.id(), 0);
}

} // namespace neon
