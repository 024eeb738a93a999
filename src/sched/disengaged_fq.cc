#include "sched/disengaged_fq.hh"

#include <algorithm>
#include <limits>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace neon
{

DisengagedFairQueueing::DisengagedFairQueueing(KernelModule &kernel,
                                               const DfqConfig &cfg)
    : Scheduler(kernel), cfg(cfg)
{
}

Tick
DisengagedFairQueueing::vtimeOf(int pid) const
{
    const TaskState *ts = taskStates.find(pid);
    return ts ? ts->vtime : 0;
}

Tick
DisengagedFairQueueing::estSizeOf(int pid) const
{
    const TaskState *ts = taskStates.find(pid);
    return ts ? ts->estSize : 0;
}

double
DisengagedFairQueueing::dutyOf(int pid) const
{
    const TaskState *ts = taskStates.find(pid);
    return ts ? ts->duty : 1.0;
}

bool
DisengagedFairQueueing::isDenied(int pid) const
{
    const TaskState *ts = taskStates.find(pid);
    return ts && ts->denied;
}

void
DisengagedFairQueueing::onChannelActive(Channel &c)
{
    // The channel's first poll snapshot: pollDeltas counts from here.
    c.polledRef = kernel.readCompletedRef(c);

    const int pid = c.context().taskId();
    TaskState &ts = stateOf(pid);

    // A task (re)joining the GPU population may not claim credit from
    // its absence: bring it forward to the system virtual time.
    ts.vtime = std::max(ts.vtime, sysVtime);

    switch (curPhase) {
      case Phase::Idle:
        applyAccess(*kernel.findTask(pid), false);
        enterFreeRun(cfg.initialFreeRun);
        break;
      case Phase::FreeRun:
        if (!ts.denied)
            kernel.unprotectChannel(c);
        break;
      case Phase::Draining:
      case Phase::Sampling:
        // Stays protected; the owner parks on first use until the next
        // decision point.
        break;
    }
}

void
DisengagedFairQueueing::onTaskExited(Task &t)
{
    taskStates.erase(t.pid());
    vendorBusySeen.erase(t.pid());
    std::erase(samplingQueue, t.pid());
    if (samplingPid == t.pid())
        endSample();
    if (samplingDrainPid == t.pid()) {
        // Its channels are gone; nothing left to drain.
        samplingDrainPid = -1;
        kernel.eventQueue().scheduleIn(0, [this] {
            if (curPhase == Phase::Sampling && samplingPid < 0 &&
                samplingDrainPid < 0) {
                sampleNext();
            }
        });
    }
}

FaultDecision
DisengagedFairQueueing::onSubmitFault(Task &t, Channel &c,
                                      const GpuRequest &req)
{
    switch (curPhase) {
      case Phase::Idle:
        return FaultDecision::Allow;
      case Phase::FreeRun:
        return stateOf(t.pid()).denied ? FaultDecision::Park
                                       : FaultDecision::Allow;
      case Phase::Draining:
        // Blocking new requests while draining is free: the device is
        // known to be busy.
        return FaultDecision::Park;
      case Phase::Sampling:
        if (t.pid() == samplingPid) {
            // Active monitoring: note the outstanding work for the
            // duty-cycle integration.
            TaskState &ts = stateOf(t.pid());
            ts.chanRefs[c.id()].first =
                std::max(ts.chanRefs[c.id()].first, req.ref);
            if (!ts.busyNow) {
                ts.busyNow = true;
                ts.busySince = kernel.eventQueue().now();
            }
            return FaultDecision::Allow;
        }
        return FaultDecision::Park;
    }
    return FaultDecision::Allow;
}

void
DisengagedFairQueueing::onPoll(Tick now)
{
    pollDeltas();

    switch (curPhase) {
      case Phase::Idle:
      case Phase::FreeRun:
        break;
      case Phase::Sampling:
        if (samplingDrainPid >= 0) {
            Task *t = kernel.findTask(samplingDrainPid);
            if (!t || kernel.drained(*t)) {
                samplingDrainPid = -1;
                sampleNext();
            } else if (now - drainStart > cfg.killThreshold) {
                Task *victim = t;
                samplingDrainPid = -1;
                kernel.killTask(
                    *victim, "request exceeded the run-time limit");
                sampleNext();
            }
        }
        break;
      case Phase::Draining:
        if (now >= drainReadyAt && allDrained()) {
            drainEnd = now;
            beginSampling();
        } else if (now - drainStart > cfg.killThreshold) {
            killUndrained();
        }
        break;
    }
}

void
DisengagedFairQueueing::pollDeltas()
{
    for (Channel *c : kernel.activeChannels()) {
        const std::uint64_t cur = kernel.readCompletedRef(*c);
        if (cur > c->polledRef) {
            const int pid = c->context().taskId();
            stateOf(pid).intervalCompletions += cur - c->polledRef;
            c->polledRef = cur;
        }
    }
}

bool
DisengagedFairQueueing::allDrained() const
{
    for (const Channel *c : kernel.activeChannels()) {
        if (!kernel.drained(*c))
            return false;
    }
    return true;
}

void
DisengagedFairQueueing::killUndrained()
{
    // With multiple tasks on the device, every blocked task's channels
    // look "undrained"; the Section 6.2 vendor query identifies the
    // context actually hogging the engine.
    Task *offender = kernel.currentlyRunningTask();
    if (offender) {
        kernel.killTask(*offender,
                        "request exceeded the run-time limit");
        drainStart = kernel.eventQueue().now(); // restart the clock
        return;
    }

    // Engine idle yet refs unsettled: reclaim whatever is left over.
    std::vector<Task *> victims;
    for (Channel *c : kernel.activeChannels()) {
        if (!kernel.drained(*c)) {
            Task *t = kernel.findTask(c->context().taskId());
            if (t && std::find(victims.begin(), victims.end(), t) ==
                victims.end()) {
                victims.push_back(t);
            }
        }
    }
    for (Task *t : victims)
        kernel.killTask(*t, "request exceeded the run-time limit");
}

void
DisengagedFairQueueing::enterFreeRun(Tick length)
{
    curPhase = Phase::FreeRun;
    freeRunLen = length;
    intervalStart = kernel.eventQueue().now();
    NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::Begin,
               "dfq.free_run", obs::TraceIds{kernel.deviceIndex(), -1, -1},
               length, nEpisodes);

    for (auto &e : taskStates)
        e.value.intervalCompletions = 0;

    // Resynchronize the counter snapshots: completions observed during
    // the episode (already accounted by the sampling runs) must not
    // leak into the new interval and make a denied task look active.
    for (Channel *c : kernel.activeChannels())
        c->polledRef = kernel.readCompletedRef(*c);

    if (episodeTimer != invalidEventId)
        kernel.eventQueue().cancel(episodeTimer);
    // Per-episode timer: rescheduled for the lifetime of the run; the
    // this-only capture stays inside the callback's inline storage.
    auto begin = [this] { episodeBegin(); };
    static_assert(EventCallback::fitsInline<decltype(begin)>);
    episodeTimer =
        kernel.eventQueue().scheduleIn(length, std::move(begin));
}

void
DisengagedFairQueueing::episodeBegin()
{
    episodeTimer = invalidEventId;
    NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::End,
               "dfq.free_run", obs::TraceIds{kernel.deviceIndex(), -1, -1},
               0, 0);
    if (kernel.activeChannels().empty()) {
        curPhase = Phase::Idle;
        return;
    }

    ++nEpisodes;
    curPhase = Phase::Draining;
    drainStart = kernel.eventQueue().now();
    NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::Begin,
               "dfq.engage", obs::TraceIds{kernel.deviceIndex(), -1, -1},
               kernel.activeChannels().size(), nEpisodes);

    // Barrier: every channel register is re-protected, then the status
    // update scan recovers last-submitted references so drain progress
    // is observable.
    kernel.protectAll();
    const std::size_t n = kernel.activeChannels().size();
    drainReadyAt = drainStart + kernel.statusUpdateCost(n) +
        kernel.protectionCost(n);
}

void
DisengagedFairQueueing::beginSampling()
{
    curPhase = Phase::Sampling;
    samplingQueue.clear();
    NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::Instant,
               "dfq.begin_sampling",
               obs::TraceIds{kernel.deviceIndex(), -1, -1},
               drainEnd - drainStart, 0);

    kernel.forEachGpuTask([this](Task &t) {
        TaskState &ts = stateOf(t.pid());
        const bool tried = ts.intervalCompletions > 0 ||
            kernel.hasParked(t);
        const bool unknown = ts.estSize == 0;
        // Idle tasks are not worth a sampling slot (paper 3.3) unless
        // we have never observed them at all.
        if ((tried && !ts.denied) || (tried && unknown) || unknown)
            samplingQueue.push_back(t.pid());
    });

    sampleNext();
}

void
DisengagedFairQueueing::sampleNext()
{
    samplingPid = -1;

    while (!samplingQueue.empty()) {
        const int pid = samplingQueue.front();
        samplingQueue.erase(samplingQueue.begin());
        Task *t = kernel.findTask(pid);
        if (!t || !t->alive() || t->channels().empty())
            continue;

        samplingPid = pid;
        NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::Begin,
                   "dfq.sample",
                   obs::TraceIds{kernel.deviceIndex(), pid, -1}, 0, 0);
        TaskState &ts = stateOf(pid);
        ts.sampleCount = 0;
        ts.sampleServiceSum = 0;
        ts.sampleStart = kernel.eventQueue().now();
        ts.busyAccum = 0;
        ts.busyNow = false;
        ts.chanRefs.clear();
        ts.parkedPending = kernel.hasParked(*t);
        if (ts.parkedPending) {
            ts.busyNow = true;
            ts.busySince = ts.sampleStart;
        }
        samplingTarget = t->channels().size() > 1
            ? cfg.samplingRequestsMulti : cfg.samplingRequests;

        for (Channel *c : t->channels()) {
            const int cid = c->id();
            c->kernelCompletionHook =
                [this, pid, cid](std::uint64_t ref, Tick when,
                                 Tick service) {
                    onSampleCompletion(pid, cid, ref, when, service);
                };
        }

        auto deadline = [this] { endSample(); };
        static_assert(EventCallback::fitsInline<decltype(deadline)>);
        samplingDeadline = kernel.eventQueue().scheduleIn(
            cfg.samplingMax, std::move(deadline));

        kernel.releaseParked(*t);
        return;
    }

    // Queue exhausted: make the scheduling decision.
    decide();
}

bool
DisengagedFairQueueing::samplePendingWork(const TaskState &ts) const
{
    if (ts.parkedPending)
        return true;
    for (const auto &e : ts.chanRefs) {
        if (e.value.first > e.value.second)
            return true;
    }
    return false;
}

void
DisengagedFairQueueing::onSampleCompletion(int pid, int channel_id,
                                           std::uint64_t ref, Tick when,
                                           Tick service)
{
    if (pid != samplingPid)
        return;

    TaskState &ts = stateOf(pid);
    auto &refs = ts.chanRefs[channel_id];
    refs.second = std::max(refs.second, ref);
    ts.parkedPending = false;

    // Trivial state-change commands are excluded from the size
    // estimate (but still count toward usage and busy time).
    if (service >= cfg.samplingSizeFloor) {
        ++ts.sampleCount;
        ts.sampleServiceSum += service;
    }

    // Engaged observation: account the sampled usage directly.
    ts.vtime += service;

    // Close the busy window when the task runs out of outstanding work.
    if (ts.busyNow && !samplePendingWork(ts)) {
        ts.busyAccum += when - ts.busySince;
        ts.busyNow = false;
    }

    if (ts.sampleCount >=
        static_cast<std::uint64_t>(samplingTarget)) {
        endSample();
    }
}

void
DisengagedFairQueueing::endSample()
{
    if (samplingPid < 0)
        return;

    if (samplingDeadline != invalidEventId) {
        kernel.eventQueue().cancel(samplingDeadline);
        samplingDeadline = invalidEventId;
    }

    Task *t = kernel.findTask(samplingPid);
    // A task that exited mid-sample has no state left: close its span
    // over a blank one rather than recreating its entry, so per-pid
    // state stays bounded by the live tasks.
    TaskState exited;
    TaskState *found = taskStates.find(samplingPid);
    TaskState &ts = found ? *found : exited;
    if (t) {
        for (Channel *c : t->channels())
            c->kernelCompletionHook = nullptr;
    }
    if (ts.sampleCount > 0) {
        ts.estSize =
            ts.sampleServiceSum / static_cast<Tick>(ts.sampleCount);
    } else if (ts.busyAccum > 0 || ts.busyNow) {
        // Nothing completed inside the window: the still-running
        // request's elapsed time is a lower bound on the task's
        // request size (batching hogs larger than the window).
        const Tick inflight = ts.busyNow
            ? kernel.eventQueue().now() - ts.busySince + ts.busyAccum
            : ts.busyAccum;
        ts.estSize = std::max(ts.estSize, inflight);
    }

    // Duty cycle over the sampling window: the fraction of it during
    // which the task had work outstanding on the device.
    const Tick now_t = kernel.eventQueue().now();
    const Tick window = now_t - ts.sampleStart;
    if (ts.busyNow) {
        ts.busyAccum += now_t - ts.busySince;
        ts.busyNow = false;
    }
    if (window > 0) {
        const double d = static_cast<double>(ts.busyAccum) /
            static_cast<double>(window);
        ts.duty = std::min(1.0, std::max(0.0, d));
    }

    NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::End,
               "dfq.sample",
               obs::TraceIds{kernel.deviceIndex(), samplingPid, -1},
               ts.estSize, static_cast<std::int64_t>(ts.duty * 1000.0));

    const int drained_pid = samplingPid;
    samplingPid = -1;

    // Exclusivity for the next sampling run requires the previous
    // task's in-flight tail to drain first; progress resumes from the
    // polling service (drain granularity, as at the barrier).
    samplingDrainPid = drained_pid;
    drainStart = kernel.eventQueue().now();
    kernel.eventQueue().scheduleIn(0, [this] {
        if (curPhase != Phase::Sampling || samplingPid >= 0 ||
            samplingDrainPid < 0) {
            return;
        }
        Task *t = kernel.findTask(samplingDrainPid);
        if (!t || kernel.drained(*t)) {
            samplingDrainPid = -1;
            sampleNext();
        }
    });
}

void
DisengagedFairQueueing::decide()
{
    const Tick interval = std::max<Tick>(1, drainEnd - intervalStart);

    // 1. Advance active tasks' virtual times by their (estimated) use
    //    of the preceding free-run interval.
    activePids.clear();
    Tick est_sum = 0;
    for (const auto &e : taskStates) {
        if (e.value.intervalCompletions > 0) {
            activePids.push_back(e.id);
            est_sum += std::max<Tick>(e.value.estSize, usec(1));
        }
    }

    for (int pid : activePids) {
        TaskState &ts = stateOf(pid);
        Tick usage = 0;
        const Tick est = std::max<Tick>(ts.estSize, usec(1));
        switch (cfg.attribution) {
          case DfqConfig::Attribution::ShareProportional: {
            // The paper's heuristic: round-robin cycling gives each
            // pending queue a share proportional to its mean request
            // size — bounded by the task's own sampled duty cycle, so
            // mostly idle tasks are not charged for the whole interval.
            const double share = static_cast<double>(est) /
                static_cast<double>(est_sum);
            const double frac = std::min(ts.duty, share);
            usage = static_cast<Tick>(
                static_cast<double>(interval) * frac);
            break;
          }
          case DfqConfig::Attribution::CountTimesSize:
            usage = std::min<Tick>(
                interval,
                static_cast<Tick>(ts.intervalCompletions) * est);
            break;
          case DfqConfig::Attribution::DeviceCounters: {
            if (!vendorCounters) {
                panic("DeviceCounters attribution requires "
                      "setVendorCounters()");
            }
            const Tick busy = vendorCounters->busyOf(pid);
            usage = std::max<Tick>(0, busy - vendorBusySeen[pid]);
            vendorBusySeen[pid] = busy;
            // The engaged sampling usage was already accounted; avoid
            // double-charging it.
            usage = std::max<Tick>(0, usage - ts.sampleServiceSum);
            break;
          }
        }
        ts.vtime += usage;
    }

    // 2. System virtual time: the oldest virtual time among tasks that
    //    are still contending (active or blocked-on-us).
    Tick oldest = std::numeric_limits<Tick>::max();
    kernel.forEachGpuTask([this, &oldest](Task &t) {
        TaskState &ts = stateOf(t.pid());
        const bool contending = ts.intervalCompletions > 0 ||
            kernel.hasParked(t) || ts.denied;
        if (contending)
            oldest = std::min(oldest, ts.vtime);
    });
    if (oldest != std::numeric_limits<Tick>::max()) {
        sysVtime = std::max(sysVtime, oldest);
        publishSystemVtime(sysVtime);
    }

    // 3. Inactive tasks may not hoard unused resources.
    kernel.forEachGpuTask([this](Task &t) {
        TaskState &ts = stateOf(t.pid());
        if (ts.intervalCompletions == 0 && !kernel.hasParked(t) &&
            !ts.denied) {
            ts.vtime = std::max(ts.vtime, sysVtime);
        }
    });

    // 4. Size the next free run: several times the engagement budget
    //    (paper: 5 x 5 ms per contending task -> 25 ms standalone,
    //    50 ms for a pair), then deny tasks so far ahead that even
    //    exclusive use by the slowest cannot overtake them within it.
    //    Sizing by the contender population (rather than the subset
    //    that happened to be sampled) keeps the denial threshold stable
    //    across episodes, which the equalization dynamics need.
    int contenders = 0;
    kernel.forEachGpuTask([this, &contenders](Task &t) {
        TaskState &ts = stateOf(t.pid());
        if (ts.intervalCompletions > 0 || kernel.hasParked(t) ||
            ts.denied) {
            ++contenders;
        }
    });
    freeRunLen = std::max<Tick>(
        cfg.minFreeRun,
        static_cast<Tick>(
            cfg.freeRunMultiplier *
            static_cast<double>(cfg.samplingMax) *
            static_cast<double>(std::max(1, contenders))));

    kernel.forEachGpuTask([this](Task &t) {
        TaskState &ts = stateOf(t.pid());
        const bool deny = ts.vtime >= sysVtime + freeRunLen;
        ts.denied = deny;
        NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::Instant,
                   "dfq.vtime",
                   obs::TraceIds{kernel.deviceIndex(), t.pid(), -1},
                   ts.vtime, deny ? 1 : 0);
        applyAccess(t, deny);
    });

    NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::End,
               "dfq.engage", obs::TraceIds{kernel.deviceIndex(), -1, -1},
               sysVtime, contenders);

    enterFreeRun(freeRunLen);
}

void
DisengagedFairQueueing::applyAccess(Task &t, bool denied)
{
    if (denied) {
        for (Channel *c : t.channels())
            kernel.protectChannel(*c);
    } else {
        for (Channel *c : t.channels())
            kernel.unprotectChannel(*c);
        kernel.releaseParked(t);
    }
}

} // namespace neon
