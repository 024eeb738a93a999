#include "os/kernel.hh"

#include <algorithm>
#include <utility>

#include "gpu/context.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace neon
{

KernelModule::KernelModule(EventQueue &eq, GpuDevice &device,
                           const CostModel &costs,
                           const ChannelPolicy &policy)
    : eq(eq), dev(device), cost(costs), policy(policy), poller(eq)
{
    // Every direct submission, and every intercepted one that finds
    // its channel empty, schedules its delivery this far ahead.
    eq.declareLane(cost.directDoorbellWrite);
    eq.declareLane(cost.faultPath(0));
    poller.onPoll = [this](Tick now) {
        NEON_TRACE(obs::TraceCategory::Kernel, obs::TraceKind::Instant,
                   "kern.poll", obs::TraceIds{deviceIndex(), -1, -1},
                   activeList.size(), parked.size());
        if (sched)
            sched->onPoll(now);
    };
}

void
KernelModule::setScheduler(Scheduler *s)
{
    sched = s;
}

void
KernelModule::start()
{
    if (!sched)
        fatal("KernelModule::start: no scheduler installed");
    poller.start();
    sched->onStart();
}

int
KernelModule::registerTask(Task *t)
{
    taskList.push_back(t);
    return nextPid++;
}

void
KernelModule::unregisterTask(Task *t)
{
    std::erase(taskList, t);
    parked.erase(t->pid());
}

void
KernelModule::startTask(Task &t, Co body)
{
    t.start(std::move(body));
    if (sched)
        sched->onTaskStarted(t);
}

void
KernelModule::killTask(Task &t, const std::string &reason)
{
    if (!t.alive())
        return;

    inform("killing task ", t.name(), " (pid ", t.pid(), "): ", reason);
    ++kills;
    NEON_TRACE(obs::TraceCategory::Kernel, obs::TraceKind::Instant,
               "kern.kill", obs::TraceIds{deviceIndex(), t.pid(), -1},
               t.channels().size(), 0);

    parked.erase(t.pid());
    t.kill();

    // Abort and reclaim every channel the task owns; the device pays the
    // abort cleanup cost, the CPU pays the kill path.
    std::vector<Channel *> owned = t.channels();
    for (Channel *c : owned) {
        dev.abortChannel(*c);
        chanTracker.forget(c->id());
        channelRegistry.erase(c->id());
        std::erase(activeList, c);
        if (sched)
            sched->onChannelClosed(*c);
        t.noteChannelGone(c);
        GpuContext &ctx = c->context();
        dev.destroyChannel(c);
        if (ctx.channels().empty())
            dev.destroyContext(&ctx);
    }
    t.defaultContext = nullptr;

    if (sched)
        sched->onTaskExited(t);
}

void
KernelModule::retireTask(Task &t)
{
    // Killed tasks were already torn down by killTask. A task whose
    // body ran to completion (Done) may still own channels — bodies
    // can co_return early on a failed open while holding earlier
    // opens — so retirement must reclaim those too, not just stop a
    // Running body.
    if (t.killed())
        return;

    NEON_TRACE(obs::TraceCategory::Kernel, obs::TraceKind::Instant,
               "kern.retire", obs::TraceIds{deviceIndex(), t.pid(), -1},
               t.channels().size(), 0);
    parked.erase(t.pid());
    t.retire(); // no-op when the body already finished

    // closeChannel aborts only channels with in-flight work; an idle
    // departing task pays no abort cleanup.
    std::vector<Channel *> owned = t.channels();
    for (Channel *c : owned)
        closeChannel(t, c);
    t.defaultContext = nullptr;

    if (sched)
        sched->onTaskExited(t);
}

Task *
KernelModule::findTask(int pid) const
{
    // Registration hands out ascending pids and unregistration keeps
    // the order, so the list is sorted by pid.
    const auto it = std::lower_bound(
        taskList.begin(), taskList.end(), pid,
        [](const Task *t, int p) { return t->pid() < p; });
    return it != taskList.end() && (*it)->pid() == pid ? *it : nullptr;
}

GpuContext *
KernelModule::createContext(Task &t)
{
    return dev.createContext(t.pid());
}

void
KernelModule::openChannel(Task &t, RequestClass cls, GpuContext *ctx)
{
    // Admission control per Section 6.3.
    OpenResult result = OpenResult::Ok;
    if (policy.protect) {
        if (t.channels().size() >= policy.perTaskLimit) {
            result = OpenResult::PerTaskLimit;
        } else if (t.channels().empty()) {
            std::size_t users = 0;
            forEachGpuTask([&users](const Task &) { ++users; });
            const std::size_t max_users =
                dev.config().maxChannels / policy.perTaskLimit;
            if (users >= max_users)
                result = OpenResult::TooManyUsers;
        }
    }

    Channel *c = nullptr;
    if (result == OpenResult::Ok) {
        if (!ctx) {
            if (!t.defaultContext)
                t.defaultContext = dev.createContext(t.pid());
            ctx = t.defaultContext;
        }
        c = dev.createChannel(*ctx, cls);
        if (!c)
            result = OpenResult::OutOfChannels;
    }

    if (c) {
        channelRegistry[c->id()] = c;
        t.noteChannelOwned(c);

        // Simulate the driver establishing the three key VMAs; the
        // kernel hooks observe each mmap and feed the tracker.
        const std::uint64_t base = 0x7f0000000000ull +
            static_cast<std::uint64_t>(c->id()) * 0x10000ull;
        chanTracker.noteMmap({VmaKind::CommandBuffer, c->id(), base, 0x4000});
        chanTracker.noteMmap({VmaKind::RingBuffer, c->id(), base + 0x4000,
                              0x1000});
        auto st = chanTracker.noteMmap(
            {VmaKind::ChannelRegister, c->id(), base + 0x5000, 0x1000});

        if (st == ChannelTracker::ChannelState::Active) {
            activeList.push_back(c);
            NEON_TRACE(obs::TraceCategory::Kernel, obs::TraceKind::Instant,
                       "kern.chan_active",
                       obs::TraceIds{deviceIndex(), t.pid(), -1}, c->id(),
                       activeList.size());
            if (sched)
                sched->onChannelActive(*c);
        }
    } else {
        NEON_TRACE(obs::TraceCategory::Kernel, obs::TraceKind::Instant,
                   "kern.chan_reject",
                   obs::TraceIds{deviceIndex(), t.pid(), -1},
                   static_cast<int>(result), 0);
    }

    // Deliver the outcome after the syscall+mmap cost. The task may
    // retire (and be freed) meanwhile, so look it up again by pid.
    const Tick when = cost.syscallEntry + cost.channelOpen;
    const int pid = t.pid();
    const int cid = c ? c->id() : -1;
    eq.scheduleIn(when, [this, pid, cid, result] {
        Task *tp = findTask(pid);
        if (!tp)
            return;
        tp->openResultChannel = cid >= 0 ? findChannel(cid) : nullptr;
        tp->openResult = result;
        tp->resumeAt(0);
    });
}

void
KernelModule::closeChannel(Task &t, Channel *c)
{
    if (!c)
        return;
    if (c->busyOnDevice() || !c->ring().empty())
        dev.abortChannel(*c);

    NEON_TRACE(obs::TraceCategory::Kernel, obs::TraceKind::Instant,
               "kern.chan_close", obs::TraceIds{deviceIndex(), t.pid(), -1},
               c->id(), 0);
    chanTracker.forget(c->id());
    channelRegistry.erase(c->id());
    std::erase(activeList, c);
    if (sched)
        sched->onChannelClosed(*c);
    t.noteChannelGone(c);

    GpuContext &ctx = c->context();
    dev.destroyChannel(c);
    if (ctx.channels().empty()) {
        if (t.defaultContext == &ctx)
            t.defaultContext = nullptr;
        dev.destroyContext(&ctx);
    }
}

Channel *
KernelModule::findChannel(int id) const
{
    Channel *const *c = channelRegistry.find(id);
    return c ? *c : nullptr;
}

void
KernelModule::protectAll()
{
    NEON_TRACE(obs::TraceCategory::Kernel, obs::TraceKind::Instant,
               "kern.protect_all", obs::TraceIds{deviceIndex(), -1, -1},
               activeList.size(), 0);
    for (Channel *c : activeList)
        protectChannel(*c);
}

void
KernelModule::submitDoorbell(Task &t, Channel &c, GpuRequest req)
{
    if (c.doorbell().present()) {
        c.doorbell().noteDirectWrite();
        NEON_TRACE(obs::TraceCategory::Kernel, obs::TraceKind::Instant,
                   "kern.doorbell_direct",
                   obs::TraceIds{deviceIndex(), t.pid(), -1}, c.id(),
                   req.ref);
        const int cid = c.id();
        Task *tp = &t;
        // Hot path: one of these runs per direct submission; the
        // raw-pointer + POD capture must stay inside the event
        // callback's inline storage.
        auto deliver = [this, tp, cid, req] {
            finishDoorbell(tp, cid, req);
        };
        static_assert(EventCallback::fitsInline<decltype(deliver)>);
        eq.scheduleIn(cost.directDoorbellWrite, std::move(deliver));
        return;
    }

    // Intercepted: the page is non-present, the store faults, and the
    // handler (running in process context) consults the policy.
    c.doorbell().noteFault();
    if (!sched)
        panic("doorbell fault with no scheduler installed");

    const FaultDecision d = sched->onSubmitFault(t, c, req);
    if (d == FaultDecision::Allow) {
        NEON_TRACE(obs::TraceCategory::Kernel, obs::TraceKind::Instant,
                   "kern.doorbell_allow",
                   obs::TraceIds{deviceIndex(), t.pid(), -1}, c.id(),
                   req.ref);
        const Tick cost_now = cost.faultPath(c.ring().size());
        const int cid = c.id();
        Task *tp = &t;
        auto deliver = [this, tp, cid, req] {
            finishDoorbell(tp, cid, req);
        };
        static_assert(EventCallback::fitsInline<decltype(deliver)>);
        eq.scheduleIn(cost_now, std::move(deliver));
    } else {
        NEON_TRACE(obs::TraceCategory::Kernel, obs::TraceKind::Instant,
                   "kern.doorbell_park",
                   obs::TraceIds{deviceIndex(), t.pid(), -1}, c.id(),
                   req.ref);
        parked[t.pid()] = {c.id(), req};
    }
}

bool
KernelModule::hasParked(const Task &t) const
{
    return parked.contains(t.pid());
}

void
KernelModule::releaseParked(Task &t)
{
    const ParkedSubmission *found = parked.find(t.pid());
    if (!found)
        return;

    const ParkedSubmission ps = *found;
    parked.erase(t.pid());

    Channel *c = findChannel(ps.channelId);
    if (!c)
        return;

    NEON_TRACE(obs::TraceCategory::Kernel, obs::TraceKind::Instant,
               "kern.release_parked",
               obs::TraceIds{deviceIndex(), t.pid(), -1}, ps.channelId,
               ps.req.ref);
    const Tick when = cost.faultPath(c->ring().size()) + cost.parkedRelease;
    Task *tp = &t;
    auto deliver = [this, tp, cid = ps.channelId, req = ps.req] {
        finishDoorbell(tp, cid, req);
    };
    static_assert(EventCallback::fitsInline<decltype(deliver)>);
    eq.scheduleIn(when, std::move(deliver));
}

Task *
KernelModule::currentlyRunningTask() const
{
    Channel *c = dev.engineCurrent(EngineKind::Execute);
    return c ? findTask(c->context().taskId()) : nullptr;
}

void
KernelModule::finishDoorbell(Task *t, int channel_id, GpuRequest req)
{
    // Check the channel before touching the task: a retired task may
    // already be freed, but it took its channels with it.
    Channel *c = findChannel(channel_id);
    if (!c || !t->alive())
        return; // torn down (e.g., task killed) while in flight

    dev.submit(*c, req);
    t->resumeAt(0);
}

} // namespace neon
