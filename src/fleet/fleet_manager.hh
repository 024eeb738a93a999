/**
 * @file
 * FleetManager: N device stacks behind one placement policy.
 *
 * The manager owns the stacks and the task principals, routes each new
 * task to a device via the configured PlacementPolicy, and aggregates
 * per-task and per-device usage across the fleet. A retiring task's
 * usage is folded into its placement record and the Task is freed, so
 * every layer below holds live tasks only. Scheduling policy
 * construction is delegated to a factory so any single-device policy
 * (Direct, Timeslice, DisengagedTimeslice, DisengagedFq, EngagedFq)
 * composes unchanged with the fleet layer.
 */

#ifndef NEON_FLEET_FLEET_MANAGER_HH
#define NEON_FLEET_FLEET_MANAGER_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fault/fault_config.hh"
#include "fault/watchdog.hh"
#include "fleet/device_stack.hh"
#include "fleet/fleet_config.hh"
#include "fleet/placement.hh"
#include "os/task.hh"
#include "sim/coroutine.hh"
#include "sim/stats.hh"

namespace neon
{

class ShardedEngine;

/**
 * Builds the per-device scheduling policy. The device's ground-truth
 * meter is passed so vendor-assisted modes (DfqConfig::Attribution::
 * DeviceCounters) can be wired per device.
 */
using SchedulerFactory = std::function<std::unique_ptr<Scheduler>(
    KernelModule &, const UsageMeter &, std::size_t device_index)>;

/** One incarnation's usage: ground-truth meter counters and rounds. */
struct IncarnationUsage
{
    Tick busy = 0;              ///< ground-truth device time
    std::uint64_t requests = 0; ///< completed device requests
    Accum rounds;               ///< completed-round durations (us)
};

/** Aggregated view of one fleet task (metrics/benches). */
struct FleetTaskUsage
{
    std::string label;
    std::size_t device = 0;
    int pid = 0;              ///< pid within the owning device's kernel
    Tick busy = 0;            ///< ground-truth device time
    std::uint64_t requests = 0;
    Accum rounds;             ///< completed-round durations (us)
    bool killed = false;
};

/** A pool of device stacks with placement-based task routing. */
class FleetManager
{
  public:
    FleetManager(EventQueue &eq, const FleetConfig &cfg,
                 const DeviceConfig &device_template,
                 const CostModel &costs,
                 const ChannelPolicy &channel_policy, Tick poll_period,
                 const SchedulerFactory &make_scheduler);

    /**
     * Group-aware construction: each device stack is built on its
     * shard's event queue (ShardedEngine::queueOfDevice), so the
     * stacks of one group share a timeline and groups advance in
     * parallel. With a serial engine (shardCount() == 1) this is
     * exactly the single-queue constructor above. Cross-shard effects
     * originating inside a shard phase (protection kills, watchdog
     * verdicts) are deferred through the engine's mailboxes and land
     * at the window barrier; everything the manager does from the
     * coordinator (placement, retirement, migration, failover) runs
     * with the workers parked and may touch any shard directly.
     */
    FleetManager(ShardedEngine &shards, const FleetConfig &cfg,
                 const DeviceConfig &device_template,
                 const CostModel &costs,
                 const ChannelPolicy &channel_policy, Tick poll_period,
                 const SchedulerFactory &make_scheduler);

    FleetManager(const FleetManager &) = delete;
    FleetManager &operator=(const FleetManager &) = delete;

    std::size_t deviceCount() const { return stacks.size(); }
    DeviceStack &stack(std::size_t i) { return *stacks.at(i); }
    const DeviceStack &stack(std::size_t i) const { return *stacks.at(i); }
    PlacementPolicy &placement() { return *policy; }

    /**
     * Create a task and place it on a device chosen by the policy.
     * The manager owns the task until it retires, or for the fleet's
     * lifetime if it is killed.
     */
    Task &createTask(const PlacementRequest &req);

    /**
     * Create a task on an explicit device, bypassing the placement
     * policy's choice (serve-layer steering, migration targets). The
     * policy is still notified so its bookkeeping stays consistent.
     */
    Task &createTaskOn(std::size_t device, const PlacementRequest &req);

    /** Begin executing a placed task's body on its device's kernel. */
    void startTask(Task &t, Co body);

    /**
     * Gracefully tear down a live task (open-system departure): close
     * its channels, end its process without a protection kill, free its
     * placement slot, and notify the placement policy. Its meter usage
     * and round statistics are then folded into the placement record
     * (taskUsage() keeps reporting them) and the Task is destroyed:
     * @p t dangles once this returns. Returns the folded usage. A
     * killed task is left as it is (the kill path already tore it
     * down); the call just reports its usage.
     */
    IncarnationUsage retireTask(Task &t);

    /**
     * Migrate a task to @p target: retire the incarnation on its
     * current device (folding its usage into @p retired, as
     * retireTask does) and create a fresh Task (same placement
     * request) on the target. Returns the new incarnation; the caller
     * restarts the workload body on it. Models checkpoint/restart
     * migration — in-flight requests on the old device are aborted.
     */
    Task &migrateTask(Task &t, std::size_t target,
                      IncarnationUsage &retired);

    /** A placed, not yet retired task's usage so far. */
    IncarnationUsage usageOf(const Task &t) const;

    /** Start every device's kernel (polling + policy timers). */
    void start();

    /** Device index a task was placed on. */
    std::size_t deviceOf(const Task &t) const;

    // ------------------------------------------------------------------
    // Fault plane: availability, failover, watchdog protection
    // ------------------------------------------------------------------

    /**
     * Take device @p i down (fault injection): force its device model
     * Down (losing in-flight work), notify onDeviceDown (the serve
     * layer shrinks admission capacity before the evictions land), and
     * drain every live task — taken from the device's kernel, in
     * placement order — through onTaskEvicted, or plain retirement
     * when no eviction handler is installed.
     */
    void failDevice(std::size_t i);

    /** Bring device @p i back and notify onDeviceUp. */
    void repairDevice(std::size_t i);

    bool deviceUp(std::size_t i) const { return deviceUp_.at(i) != 0; }

    /** Devices currently up. */
    std::size_t upDeviceCount() const;

    /**
     * Install a watchdog service on every device stack. Call before
     * start(); the watchdogs arm with the kernels.
     */
    void enableWatchdog(const WatchdogConfig &cfg);

    /** The per-device watchdog, or nullptr when not enabled. */
    const Watchdog *watchdog(std::size_t i) const
    {
        return i < watchdogs.size() ? watchdogs[i].get() : nullptr;
    }

    /** Watchdog kills across the fleet, device order then kill order. */
    std::vector<WatchdogKill> watchdogKillLog() const;

    std::uint64_t watchdogHangKills() const;
    std::uint64_t watchdogRunawayKills() const;

    /**
     * Observer invoked after a task is killed by per-device protection
     * (scheduler kill path). The serve layer uses it to free admission
     * slots; the placement policy has already been notified.
     */
    std::function<void(Task &)> onTaskKilled;

    /**
     * Observer handed each live task of a dying device, in placement
     * order. The handler owns the disposition (the serve layer retires
     * the incarnation and re-queues the session); without one the task
     * is simply retired.
     */
    std::function<void(Task &)> onTaskEvicted;

    /** Device availability transitions (serve capacity tracking). */
    std::function<void(std::size_t)> onDeviceDown;
    std::function<void(std::size_t)> onDeviceUp;

    /** Snapshot of per-device load, ordered by device index. */
    std::vector<DeviceLoadView> loadViews() const;

    // ------------------------------------------------------------------
    // Dense per-device state, ordered by device index (fleet-wide
    // readers such as the global clock touch these, not the stacks)
    // ------------------------------------------------------------------

    /** Published vtime cell of a device whose policy keeps none. */
    static constexpr Tick noVtime = -1;

    /**
     * Each device policy's system virtual time (VirtualTimeTap::
     * publishTo), or noVtime. Shard threads write their own devices'
     * cells; read them from the coordinator only.
     */
    const std::vector<Tick> &publishedVtimes() const { return vtimes; }

    /** Each device's DeviceConfig::speedFactor. */
    const std::vector<double> &speedFactors() const { return speedFactors_; }

    /** Live (placed, not yet retired or killed) tasks per device. */
    const std::vector<std::size_t> &liveTaskCounts() const
    {
        return liveTasksPerDevice;
    }

    /** Availability flags (nonzero = up). */
    const std::vector<char> &upFlags() const { return deviceUp_; }

    /**
     * Per-task usage aggregated across all devices: one entry per
     * placement, in placement order, retired incarnations included.
     */
    std::vector<FleetTaskUsage> taskUsage() const;

    /** Per-device busy time, ordered by device index. */
    std::vector<Tick> perDeviceBusy() const;

    /** Total busy time across the fleet. */
    Tick totalBusy() const;

    /** Total completed requests across the fleet's devices. */
    std::uint64_t totalRequests() const;

    /** Total protection kills across the fleet. */
    std::uint64_t totalKills() const;

    /** Placed tasks not yet retired, in placement order. */
    std::vector<Task *> tasks() const;

  private:
    struct Placed
    {
        std::unique_ptr<Task> task; ///< null once retired
        PlacementRequest req;
        std::size_t device;
        int pid;

        /** Holds a placement slot (cleared on retire/migrate/kill). */
        bool live = true;

        /** Final usage, folded in when the incarnation retired. */
        IncarnationUsage retired;
    };

    void buildStacks(const FleetConfig &cfg,
                     const DeviceConfig &device_template,
                     const CostModel &costs,
                     const ChannelPolicy &channel_policy,
                     Tick poll_period,
                     const SchedulerFactory &make_scheduler,
                     const std::function<EventQueue &(std::size_t)> &queue_of);

    Task &emplaceTask(std::size_t device, const PlacementRequest &req);
    Placed &placedOf(const Task &t);
    const Placed &placedOf(const Task &t) const;
    IncarnationUsage liveUsage(const Placed &p) const;

    /**
     * Barrier half of the protection-kill path: release the slot and
     * notify fleet-level observers. Runs directly when the kill fires
     * on the coordinator (serial core, window barriers) and via the
     * shard mailbox when it fires inside a parallel phase — placement
     * tables and the serve layer are only ever mutated with the
     * workers parked.
     */
    void handleTaskKilled(Task &t);

    /** Drop a live entry's slot and notify the policy (idempotent). */
    void releasePlacement(Placed &entry);

    std::vector<std::unique_ptr<DeviceStack>> stacks;
    std::vector<std::unique_ptr<Watchdog>> watchdogs;
    std::vector<char> deviceUp_; ///< availability flags, device order
    std::unique_ptr<PlacementPolicy> policy;
    std::vector<Placed> placed;

    /**
     * Open-system churn makes `placed` grow for the run's lifetime
     * (one folded record per departed incarnation), so the hot paths
     * must not scan it: lookups go through this index of the tasks
     * not yet retired (a freed task's address may be reused) and
     * load snapshots through the per-device live aggregates.
     */
    std::map<const Task *, std::size_t> placedIndex;
    std::vector<std::size_t> liveTasksPerDevice;
    std::vector<double> liveDemandPerDevice;
    std::vector<double> speedFactors_;

    /** Published vtime cells; never resized after the stacks are built. */
    std::vector<Tick> vtimes;
};

} // namespace neon

#endif // NEON_FLEET_FLEET_MANAGER_HH
