#include "sched/timeslice.hh"

#include <algorithm>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace neon
{

TimesliceScheduler::TimesliceScheduler(KernelModule &kernel,
                                       const TimesliceConfig &cfg)
    : Scheduler(kernel), cfg(cfg)
{
}

void
TimesliceScheduler::onChannelActive(Channel &c)
{
    // Channels stay protected under the engaged policy. If the GPU is
    // currently unscheduled, the channel's owner may take the token.
    if (!tokenHolder && !drainingTask) {
        for (Task *t : kernel.tasks()) {
            if (t->pid() == c.context().taskId() && t->alive()) {
                grant(*t);
                break;
            }
        }
    }
}

void
TimesliceScheduler::onTaskExited(Task &t)
{
    overuse.erase(t.pid());
    if (drainingTask == &t)
        drainingTask = nullptr;
    if (tokenHolder == &t) {
        tokenHolder = nullptr;
        NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::End,
                   "ts.slice",
                   obs::TraceIds{kernel.deviceIndex(), t.pid(), -1}, 1, 0);
        if (sliceTimer != invalidEventId) {
            kernel.eventQueue().cancel(sliceTimer);
            sliceTimer = invalidEventId;
        }
        passToken();
    }
}

FaultDecision
TimesliceScheduler::onSubmitFault(Task &t, Channel &, const GpuRequest &)
{
    // New requests are blocked while draining — free, since the device
    // is known to be busy with the ex-holder's overrun.
    if (drainingTask)
        return FaultDecision::Park;

    if (!tokenHolder) {
        grant(t);
        return FaultDecision::Allow;
    }

    return &t == tokenHolder ? FaultDecision::Allow : FaultDecision::Park;
}

void
TimesliceScheduler::onPoll(Tick now)
{
    if (drainingTask)
        checkDrain(now);
}

void
TimesliceScheduler::grant(Task &t)
{
    tokenHolder = &t;
    lastHolderPid = t.pid();
    sliceEnd = kernel.eventQueue().now() + cfg.slice;
    NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::Begin,
               "ts.slice", obs::TraceIds{kernel.deviceIndex(), t.pid(), -1},
               cfg.slice,
               overuse.contains(t.pid()) ? overuse[t.pid()] : Tick(0));
    // One timer per granted slice, for the lifetime of the run.
    auto expiry = [this] { sliceExpired(); };
    static_assert(EventCallback::fitsInline<decltype(expiry)>);
    sliceTimer = kernel.eventQueue().schedule(sliceEnd, std::move(expiry));
    onGrant(t);
    kernel.releaseParked(t);
}

void
TimesliceScheduler::sliceExpired()
{
    sliceTimer = invalidEventId;
    if (!tokenHolder)
        return;

    Task *t = tokenHolder;
    tokenHolder = nullptr;
    NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::End,
               "ts.slice",
               obs::TraceIds{kernel.deviceIndex(), t->pid(), -1}, 0, 0);
    onRevoke(*t);

    drainingTask = t;
    drainBegin = kernel.eventQueue().now();
    drainReadyAt = drainBegin + statusUpdateDelay();
    checkDrain(kernel.eventQueue().now());
}

bool
TimesliceScheduler::drainedOut(const Task &t) const
{
    for (const Channel *c : t.channels()) {
        if (kernel.readCompletedRef(*c) < kernel.readLastSubmittedRef(*c))
            return false;
    }
    return true;
}

void
TimesliceScheduler::checkDrain(Tick now)
{
    Task *t = drainingTask;
    if (!t) {
        return;
    } else if (!t->alive()) {
        drainingTask = nullptr;
        passToken();
        return;
    }

    if (now >= drainReadyAt && drainedOut(*t)) {
        // Charge the overrun beyond the slice edge as overuse.
        const Tick over = std::max<Tick>(0, now - drainBegin);
        if (over > 0)
            overuse[t->pid()] += over;
        drainingTask = nullptr;
        passToken();
        return;
    }

    if (now - drainBegin > cfg.killThreshold) {
        // The request never finished: aberrant or malicious task.
        Task *victim = t;
        drainingTask = nullptr;
        kernel.killTask(*victim, "request exceeded the run-time limit");
        // killTask triggers onTaskExited -> passToken via holder logic;
        // the victim was not the holder here, so advance explicitly.
        passToken();
    }
}

void
TimesliceScheduler::passToken()
{
    if (tokenHolder || drainingTask)
        return;

    // The kernel visits tasks in ascending pid order.
    rotation.clear();
    kernel.forEachGpuTask([this](Task &t) { rotation.push_back(&t); });
    if (rotation.empty())
        return;

    // Start from the task after the previous holder in pid order.
    std::size_t start = 0;
    for (std::size_t i = 0; i < rotation.size(); ++i) {
        if (rotation[i]->pid() > lastHolderPid) {
            start = i;
            break;
        }
    }

    // Skip turns of tasks that have banked a full slice of overuse.
    for (std::size_t step = 0; step < rotation.size(); ++step) {
        Task *cand = rotation[(start + step) % rotation.size()];
        Tick &ou = overuse[cand->pid()];
        if (ou >= cfg.slice) {
            ou -= cfg.slice;
            ++nSkips;
            NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::Instant,
                       "ts.skip_overuse",
                       obs::TraceIds{kernel.deviceIndex(), cand->pid(), -1},
                       ou, 0);
            continue;
        }
        grant(*cand);
        return;
    }

    // Everyone was skipped this pass; grant to the first candidate so
    // the device does not sit idle with work pending.
    grant(*rotation[start % rotation.size()]);
}

} // namespace neon
