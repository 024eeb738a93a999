#include "sched/engaged_fq.hh"

#include <algorithm>
#include <limits>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace neon
{

EngagedFairQueueing::EngagedFairQueueing(KernelModule &kernel,
                                         const EngagedFqConfig &cfg)
    : Scheduler(kernel), cfg(cfg)
{
}

EngagedFairQueueing::TaskState &
EngagedFairQueueing::stateOf(int pid)
{
    auto it = tasks.find(pid);
    if (it == tasks.end()) {
        TaskState ts;
        ts.estSize = cfg.initialEstimate;
        it = tasks.emplace(pid, ts).first;
    }
    return it->second;
}

Tick
EngagedFairQueueing::tapTaskVtime(int pid) const
{
    auto it = tasks.find(pid);
    return it == tasks.end() ? 0 : it->second.finishTag;
}

void
EngagedFairQueueing::onChannelActive(Channel &c)
{
    // Stays protected; observe completions for accounting and pacing.
    const int pid = c.context().taskId();
    c.kernelCompletionHook = [this, pid](std::uint64_t, Tick,
                                         Tick service) {
        onCompletion(pid, service);
    };
}

void
EngagedFairQueueing::onTaskExited(Task &t)
{
    tasks.erase(t.pid());
    if (servingPid == t.pid()) {
        // Its channels were aborted; no completion will arrive.
        busy = false;
        servingPid = -1;
        dispatchNext();
    }
}

FaultDecision
EngagedFairQueueing::onSubmitFault(Task &t, Channel &, const GpuRequest &)
{
    TaskState &ts = stateOf(t.pid());
    const Tick start = std::max(sysV, ts.finishTag);
    ts.finishTag = start + ts.estSize;
    ts.pendingStartTag = start;

    if (busy)
        return FaultDecision::Park;

    // The device is idle: this request still has to win the slot by
    // start tag against any parked peers.
    Task *best = nullptr;
    Tick best_tag = start;
    kernel.forEachParkedPid([&](int pid) {
        Task *peer = kernel.findTask(pid);
        if (!peer || !peer->alive())
            return;
        const Tick tag = stateOf(pid).pendingStartTag;
        if (tag < best_tag) {
            best_tag = tag;
            best = peer;
        }
    });

    if (!best) {
        dispatched(t.pid(), start);
        return FaultDecision::Allow;
    }

    dispatched(best->pid(), best_tag);
    kernel.releaseParked(*best);
    return FaultDecision::Park;
}

void
EngagedFairQueueing::onPoll(Tick now)
{
    if (busy && servingPid >= 0 &&
        now - serviceBegan > cfg.killThreshold) {
        Task *t = kernel.findTask(servingPid);
        if (t) {
            kernel.killTask(*t, "request exceeded the run-time limit");
            return; // onTaskExited advanced the queue
        }
        busy = false;
        servingPid = -1;
        dispatchNext();
    }
}

void
EngagedFairQueueing::dispatched(int pid, Tick start_tag)
{
    busy = true;
    servingPid = pid;
    serviceBegan = kernel.eventQueue().now();
    sysV = std::max(sysV, start_tag);
    publishSystemVtime(sysV);
    NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::Instant,
               "efq.dispatch", obs::TraceIds{kernel.deviceIndex(), pid, -1},
               start_tag, sysV);
}

void
EngagedFairQueueing::onCompletion(int pid, Tick service)
{
    TaskState &ts = stateOf(pid);
    ts.estSize = static_cast<Tick>(
        (1.0 - cfg.estimateGain) * static_cast<double>(ts.estSize) +
        cfg.estimateGain * static_cast<double>(service));
    NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::Instant,
               "efq.complete", obs::TraceIds{kernel.deviceIndex(), pid, -1},
               service, ts.estSize);

    if (pid == servingPid) {
        busy = false;
        servingPid = -1;
        // Anticipate the completing task's next submission before
        // handing the device to a parked peer. Hot path: one of these
        // per engaged completion.
        auto anticipate = [this] { dispatchNext(); };
        static_assert(EventCallback::fitsInline<decltype(anticipate)>);
        kernel.eventQueue().scheduleIn(cfg.anticipation,
                                       std::move(anticipate));
    }
}

void
EngagedFairQueueing::dispatchNext()
{
    if (busy)
        return;

    // Pick the parked submission with the minimum start tag.
    Task *best = nullptr;
    Tick best_tag = std::numeric_limits<Tick>::max();
    kernel.forEachParkedPid([&](int pid) {
        Task *t = kernel.findTask(pid);
        if (!t || !t->alive())
            return;
        const Tick tag = stateOf(pid).pendingStartTag;
        if (tag < best_tag) {
            best_tag = tag;
            best = t;
        }
    });

    if (best) {
        dispatched(best->pid(), best_tag);
        kernel.releaseParked(*best);
    }
}

} // namespace neon
