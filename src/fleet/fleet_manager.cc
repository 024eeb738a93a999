#include "fleet/fleet_manager.hh"

#include <utility>

#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/sharded_engine.hh"

namespace neon
{

FleetManager::FleetManager(EventQueue &eq, const FleetConfig &cfg,
                           const DeviceConfig &device_template,
                           const CostModel &costs,
                           const ChannelPolicy &channel_policy,
                           Tick poll_period,
                           const SchedulerFactory &make_scheduler)
    : policy(makePlacementPolicy(cfg))
{
    buildStacks(cfg, device_template, costs, channel_policy, poll_period,
                make_scheduler,
                [&eq](std::size_t) -> EventQueue & { return eq; });
}

FleetManager::FleetManager(ShardedEngine &shards, const FleetConfig &cfg,
                           const DeviceConfig &device_template,
                           const CostModel &costs,
                           const ChannelPolicy &channel_policy,
                           Tick poll_period,
                           const SchedulerFactory &make_scheduler)
    : policy(makePlacementPolicy(cfg))
{
    buildStacks(cfg, device_template, costs, channel_policy, poll_period,
                make_scheduler,
                [&shards](std::size_t i) -> EventQueue & {
                    return shards.queueOfDevice(i);
                });
}

void
FleetManager::buildStacks(const FleetConfig &cfg,
                          const DeviceConfig &device_template,
                          const CostModel &costs,
                          const ChannelPolicy &channel_policy,
                          Tick poll_period,
                          const SchedulerFactory &make_scheduler,
                          const std::function<EventQueue &(std::size_t)>
                              &queue_of)
{
    if (cfg.devices == 0)
        panic("fleet: device count must be at least 1");

    liveTasksPerDevice.assign(cfg.devices, 0);
    liveDemandPerDevice.assign(cfg.devices, 0.0);
    deviceUp_.assign(cfg.devices, 1);
    speedFactors_.resize(cfg.devices);
    vtimes.assign(cfg.devices, noVtime);
    stacks.reserve(cfg.devices);
    for (std::size_t i = 0; i < cfg.devices; ++i) {
        DeviceConfig dcfg = device_template;
        dcfg.speedFactor =
            cfg.speedFactorOf(i, device_template.speedFactor);
        speedFactors_[i] = dcfg.speedFactor;
        auto stack = std::make_unique<DeviceStack>(
            queue_of(i), i, dcfg, costs, channel_policy, poll_period);
        stack->setScheduler(
            make_scheduler(stack->kernel, stack->meter, i), vtimes[i]);
        stacks.push_back(std::move(stack));
    }
}

Task &
FleetManager::emplaceTask(std::size_t device, const PlacementRequest &req)
{
    if (device >= stacks.size())
        panic("fleet: placement chose device ", device, " of ",
              stacks.size());
    if (!deviceUp_[device])
        panic("fleet: placing task ", req.label, " on down device ",
              device);

    auto task =
        std::make_unique<Task>(stacks[device]->kernel, req.label);
    Task &ref = *task;
    const int pid = ref.pid();
    placedIndex[&ref] = placed.size();
    placed.push_back({std::move(task), req, device, pid, /*live=*/true, {}});
    ++liveTasksPerDevice[device];
    liveDemandPerDevice[device] += req.demand;
    policy->noteTaskPlaced(req, device);
    NEON_TRACE(obs::TraceCategory::Fleet, obs::TraceKind::Instant,
               "fleet.place",
               obs::TraceIds{static_cast<std::int16_t>(device), ref.pid(),
                             -1},
               liveTasksPerDevice[device], 0);

    // Protection kills happen inside the per-device scheduler; surface
    // them to fleet-level observers (admission control) and keep the
    // placement policy's live-task bookkeeping honest. In a sharded
    // run the kill fires on the device's shard thread, so the shared-
    // state half is deferred to the window barrier via the mailbox
    // (the trace record still lands shard-side at the kill's time).
    ref.onKilled = [this](Process &p) {
        Task &t = static_cast<Task &>(p);
        NEON_TRACE(obs::TraceCategory::Fleet, obs::TraceKind::Instant,
                   "fleet.task_killed",
                   obs::TraceIds{
                       static_cast<std::int16_t>(placedOf(t).device),
                       t.pid(), -1},
                   0, 0);
        if (ShardedEngine::inShardPhase()) {
            ShardedEngine::postFromShard(
                [this, task = &t] { handleTaskKilled(*task); });
        } else {
            handleTaskKilled(t);
        }
    };
    return ref;
}

void
FleetManager::handleTaskKilled(Task &t)
{
    releasePlacement(placedOf(t));
    if (onTaskKilled)
        onTaskKilled(t);
}

FleetManager::Placed &
FleetManager::placedOf(const Task &t)
{
    auto it = placedIndex.find(&t);
    if (it == placedIndex.end())
        panic("fleet: task ", t.name(),
              " was not placed by this manager");
    return placed[it->second];
}

const FleetManager::Placed &
FleetManager::placedOf(const Task &t) const
{
    auto it = placedIndex.find(&t);
    if (it == placedIndex.end())
        panic("fleet: task ", t.name(),
              " was not placed by this manager");
    return placed[it->second];
}

void
FleetManager::releasePlacement(Placed &entry)
{
    if (!entry.live)
        return;
    entry.live = false;
    --liveTasksPerDevice[entry.device];
    liveDemandPerDevice[entry.device] -= entry.req.demand;
    policy->noteTaskDeparted(entry.req, entry.device);
}

Task &
FleetManager::createTask(const PlacementRequest &req)
{
    return emplaceTask(policy->place(loadViews(), req), req);
}

Task &
FleetManager::createTaskOn(std::size_t device, const PlacementRequest &req)
{
    return emplaceTask(device, req);
}

void
FleetManager::startTask(Task &t, Co body)
{
    stacks[deviceOf(t)]->kernel.startTask(t, std::move(body));
}

IncarnationUsage
FleetManager::retireTask(Task &t)
{
    // Killed tasks were torn down (and their slot released) by the
    // kill path and keep their Task; everything else — Running bodies
    // and bodies that already co_returned while still holding channels
    // — goes through the kernel's graceful teardown.
    if (t.killed())
        return usageOf(t);
    Placed &entry = placedOf(t);
    NEON_TRACE(obs::TraceCategory::Fleet, obs::TraceKind::Instant,
               "fleet.retire",
               obs::TraceIds{static_cast<std::int16_t>(entry.device),
                             t.pid(), -1},
               liveTasksPerDevice[entry.device], 0);
    stacks[entry.device]->kernel.retireTask(t);
    releasePlacement(entry);

    // Fold after the teardown: aborting an in-flight request charges
    // its occupancy to this pid. Then nothing below the fleet holds
    // the task any more.
    const UsageMeter::Usage u =
        stacks[entry.device]->meter.retire(entry.pid);
    entry.retired = {u.busy, u.requests, t.roundTimes()};
    placedIndex.erase(&t);
    entry.task.reset();
    return entry.retired;
}

Task &
FleetManager::migrateTask(Task &t, std::size_t target,
                          IncarnationUsage &retired)
{
    if (target >= stacks.size())
        panic("fleet: migration target ", target, " of ", stacks.size());
    const Placed &entry = placedOf(t);
    if (entry.device == target)
        panic("fleet: migrating task ", t.name(), " onto its own device");

    // Copy the request before retiring: emplaceTask below grows
    // `placed` and can reallocate.
    const PlacementRequest req = entry.req;
    NEON_TRACE(obs::TraceCategory::Fleet, obs::TraceKind::Instant,
               "fleet.migrate",
               obs::TraceIds{static_cast<std::int16_t>(entry.device),
                             t.pid(), -1},
               entry.device, target);
    retired = retireTask(t);
    return emplaceTask(target, req);
}

IncarnationUsage
FleetManager::usageOf(const Task &t) const
{
    return liveUsage(placedOf(t));
}

IncarnationUsage
FleetManager::liveUsage(const Placed &p) const
{
    const UsageMeter::Usage u = stacks[p.device]->meter.usageOf(p.pid);
    return {u.busy, u.requests, p.task->roundTimes()};
}

void
FleetManager::start()
{
    for (auto &s : stacks)
        s->kernel.start();
    for (auto &w : watchdogs)
        w->start();
}

void
FleetManager::failDevice(std::size_t i)
{
    if (i >= stacks.size())
        panic("fleet: failing device ", i, " of ", stacks.size());
    if (!deviceUp_[i])
        return;
    deviceUp_[i] = 0;

    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
               "fleet.device_down",
               obs::TraceIds{static_cast<std::int16_t>(i), -1, -1},
               liveTasksPerDevice[i], 0);

    // Lose in-flight work first (charging partial occupancy), then let
    // the serve layer shrink its capacity before any eviction can
    // release a queued session toward the dead device.
    stacks[i]->device.forceDown();
    if (onDeviceDown)
        onDeviceDown(i);

    // Snapshot the victims: eviction handling retires them (changing
    // the kernel's list) and may place replacement tasks. The kernel
    // lists the device's tasks in registration order, which is
    // placement order; killed ones are skipped below.
    std::vector<Task *> victims;
    for (Task *t : stacks[i]->kernel.tasks()) {
        if (placedIndex.count(t))
            victims.push_back(t);
    }
    for (Task *t : victims) {
        if (t->killed())
            continue;
        if (onTaskEvicted)
            onTaskEvicted(*t);
        else
            retireTask(*t);
    }
}

void
FleetManager::repairDevice(std::size_t i)
{
    if (i >= stacks.size())
        panic("fleet: repairing device ", i, " of ", stacks.size());
    if (deviceUp_[i])
        return;
    deviceUp_[i] = 1;
    stacks[i]->device.repair();
    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
               "fleet.device_up",
               obs::TraceIds{static_cast<std::int16_t>(i), -1, -1}, 0, 0);
    if (onDeviceUp)
        onDeviceUp(i);
}

std::size_t
FleetManager::upDeviceCount() const
{
    std::size_t n = 0;
    for (const char up : deviceUp_)
        n += up ? 1 : 0;
    return n;
}

void
FleetManager::enableWatchdog(const WatchdogConfig &cfg)
{
    if (!watchdogs.empty())
        panic("fleet: watchdog already enabled");
    watchdogs.reserve(stacks.size());
    // A watchdog kill reaches the serve layer like any protection
    // kill, through Process::onKilled.
    for (std::size_t i = 0; i < stacks.size(); ++i)
        watchdogs.push_back(std::make_unique<Watchdog>(
            stacks[i]->kernel.eventQueue(), stacks[i]->kernel, cfg, i));
}

std::vector<WatchdogKill>
FleetManager::watchdogKillLog() const
{
    std::vector<WatchdogKill> out;
    for (const auto &w : watchdogs)
        out.insert(out.end(), w->killLog().begin(), w->killLog().end());
    return out;
}

std::uint64_t
FleetManager::watchdogHangKills() const
{
    std::uint64_t n = 0;
    for (const auto &w : watchdogs)
        n += w->hangKills();
    return n;
}

std::uint64_t
FleetManager::watchdogRunawayKills() const
{
    std::uint64_t n = 0;
    for (const auto &w : watchdogs)
        n += w->runawayKills();
    return n;
}

std::size_t
FleetManager::deviceOf(const Task &t) const
{
    return placedOf(t).device;
}

std::vector<DeviceLoadView>
FleetManager::loadViews() const
{
    // O(devices): retired/migrated/killed tasks released their slot in
    // the per-device aggregates, so sticky capacity (and load
    // tie-breaks) drain as tenants depart without rescanning the
    // ever-growing placement log.
    std::vector<DeviceLoadView> views;
    views.reserve(stacks.size());
    for (const auto &s : stacks) {
        DeviceLoadView v;
        v.index = s->index;
        v.speedFactor = speedFactors_[s->index];
        v.busyTime = s->meter.totalBusy();
        v.assignedTasks = liveTasksPerDevice[s->index];
        v.assignedDemand = liveDemandPerDevice[s->index];
        v.up = deviceUp_[s->index] != 0;
        views.push_back(v);
    }
    return views;
}

std::vector<FleetTaskUsage>
FleetManager::taskUsage() const
{
    std::vector<FleetTaskUsage> out;
    out.reserve(placed.size());
    for (const Placed &p : placed) {
        const IncarnationUsage inc = p.task ? liveUsage(p) : p.retired;
        FleetTaskUsage u;
        u.label = p.req.label;
        u.device = p.device;
        u.pid = p.pid;
        u.busy = inc.busy;
        u.requests = inc.requests;
        u.rounds = inc.rounds;
        u.killed = p.task && p.task->killed();
        out.push_back(std::move(u));
    }
    return out;
}

std::vector<Tick>
FleetManager::perDeviceBusy() const
{
    std::vector<Tick> out;
    out.reserve(stacks.size());
    for (const auto &s : stacks)
        out.push_back(s->meter.totalBusy());
    return out;
}

Tick
FleetManager::totalBusy() const
{
    Tick sum = 0;
    for (const auto &s : stacks)
        sum += s->meter.totalBusy();
    return sum;
}

std::uint64_t
FleetManager::totalRequests() const
{
    std::uint64_t sum = 0;
    for (const auto &s : stacks)
        sum += s->meter.totalRequests();
    return sum;
}

std::uint64_t
FleetManager::totalKills() const
{
    std::uint64_t sum = 0;
    for (const auto &s : stacks)
        sum += s->kernel.killCount();
    return sum;
}

std::vector<Task *>
FleetManager::tasks() const
{
    std::vector<Task *> out;
    for (const Placed &p : placed) {
        if (p.task)
            out.push_back(p.task.get());
    }
    return out;
}

} // namespace neon
