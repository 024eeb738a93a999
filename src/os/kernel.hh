/**
 * @file
 * The NEON kernel module: interception, polling, protection control,
 * channel lifecycle, and the kill protocol.
 *
 * This is the prototype's centrepiece (paper Section 4). It owns the
 * per-channel protection state, dispatches intercepted doorbell writes
 * to the installed scheduling policy, provides the polling-thread
 * service, and implements the channel-allocation protection policy of
 * Section 6.3.
 */

#ifndef NEON_OS_KERNEL_HH
#define NEON_OS_KERNEL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gpu/device.hh"
#include "os/channel_tracker.hh"
#include "os/cost_model.hh"
#include "os/polling_service.hh"
#include "os/scheduler.hh"
#include "os/task.hh"
#include "sim/event_queue.hh"
#include "sim/id_map.hh"

namespace neon
{

/** Channel-allocation protection policy (paper Section 6.3). */
struct ChannelPolicy
{
    /** Enforce limits? Off reproduces the DoS vulnerability. */
    bool protect = false;

    /** C: maximum channels per task. */
    std::size_t perTaskLimit = 8;
};

/**
 * Kernel-resident control logic tying tasks, MMU protection, the device
 * and the scheduling policy together.
 */
class KernelModule
{
  public:
    KernelModule(EventQueue &eq, GpuDevice &device,
                 const CostModel &costs = CostModel(),
                 const ChannelPolicy &policy = ChannelPolicy());

    KernelModule(const KernelModule &) = delete;
    KernelModule &operator=(const KernelModule &) = delete;

    EventQueue &eventQueue() { return eq; }
    GpuDevice &device() { return dev; }

    /** Fleet position of the backing device (trace records). */
    std::int16_t deviceIndex() const { return dev.deviceIndex(); }
    const CostModel &costs() const { return cost; }
    PollingService &polling() { return poller; }
    ChannelTracker &tracker() { return chanTracker; }
    const ChannelPolicy &channelPolicy() const { return policy; }

    /** Install the scheduling policy (required before start()). */
    void setScheduler(Scheduler *s);
    Scheduler *scheduler() { return sched; }

    /** Start polling and let the policy install its timers. */
    void start();

    // ------------------------------------------------------------------
    // Task lifecycle
    // ------------------------------------------------------------------

    /** Register a task; returns its pid. Called from Task's ctor. */
    int registerTask(Task *t);

    /** Unregister (Task dtor). */
    void unregisterTask(Task *t);

    /** Begin executing a task body and notify the policy. */
    void startTask(Task &t, Co body);

    /**
     * Kill a task (protection action): abort its channels on the device,
     * reclaim kernel/device resources, destroy the process.
     */
    void killTask(Task &t, const std::string &reason);

    /**
     * Retire a task gracefully (open-system departure or migration):
     * close its channels — idle channels close cleanly, busy ones are
     * aborted — reclaim kernel/device resources, and end the process
     * without counting a protection kill. Like killTask, must not be
     * called from inside the task's own body.
     */
    void retireTask(Task &t);

    /**
     * Registered tasks in registration (ascending-pid) order. A task
     * leaves the list when it is destroyed, and a fleet destroys a
     * task when it retires, so under a fleet the list never holds a
     * retired incarnation.
     */
    const std::vector<Task *> &tasks() const { return taskList; }

    /** Look up a registered task by pid; nullptr if gone. O(log n). */
    Task *findTask(int pid) const;

    /**
     * Visit the tasks that still own at least one channel, in
     * ascending pid order. @p fn may change channel protection and
     * parked submissions, but must not create, kill or retire a task.
     */
    template <typename F>
    void
    forEachGpuTask(F &&fn) const
    {
        for (Task *t : taskList) {
            if (t->alive() && !t->channels().empty())
                fn(*t);
        }
    }

    std::uint64_t killCount() const { return kills; }

    // ------------------------------------------------------------------
    // Channel lifecycle (syscall surface)
    // ------------------------------------------------------------------

    /** Create an additional GPU context for @p t (DoS experiments). */
    GpuContext *createContext(Task &t);

    /**
     * Open a channel: ioctl + three mmaps through the kernel hooks,
     * feeding the channel tracker. Asynchronous; the outcome lands in
     * the task's openResult slots and the task is resumed.
     */
    void openChannel(Task &t, RequestClass cls, GpuContext *ctx);

    /** Close an idle channel and release its kernel state. */
    void closeChannel(Task &t, Channel *c);

    Channel *findChannel(int id) const;

    /** All tracker-active channels (the schedulable population). */
    const std::vector<Channel *> &activeChannels() const
    {
        return activeList;
    }

    // ------------------------------------------------------------------
    // Protection control (scheduler surface)
    // ------------------------------------------------------------------

    /** Make doorbell writes fault (engage) for one channel. */
    void protectChannel(Channel &c) { c.doorbell().setPresent(false); }

    /** Allow direct doorbell writes (disengage) for one channel. */
    void unprotectChannel(Channel &c) { c.doorbell().setPresent(true); }

    /** Engage every active channel (barrier entry). */
    void protectAll();

    /** Aggregate CPU cost of toggling protection on @p n channels. */
    Tick protectionCost(std::size_t n) const
    {
        return cost.protectionToggle * static_cast<Tick>(n);
    }

    // ------------------------------------------------------------------
    // Submission path (task surface)
    // ------------------------------------------------------------------

    /**
     * A doorbell write from @p t on @p c. Direct if the register is
     * present; otherwise the fault handler consults the policy, which
     * may allow (after the interception cost) or park the submission.
     */
    void submitDoorbell(Task &t, Channel &c, GpuRequest req);

    /** True if @p t has a parked (delayed) submission. */
    bool hasParked(const Task &t) const;

    /** Release a parked submission (charges the interception cost). */
    void releaseParked(Task &t);

    /**
     * Visit the pids with a parked submission in ascending order
     * (policy bookkeeping). @p fn must not park or release one.
     */
    template <typename F>
    void
    forEachParkedPid(F &&fn) const
    {
        for (const auto &p : parked)
            fn(p.id);
    }

    // ------------------------------------------------------------------
    // Shared-structure reads (legitimately visible to the kernel)
    // ------------------------------------------------------------------

    /** Poll a channel's reference counter (cheap kernel mapping read). */
    std::uint64_t readCompletedRef(const Channel &c) const
    {
        return c.completedRef();
    }

    /**
     * Recover the last submitted reference by scanning the command
     * queue (the post-re-engagement status update). The caller charges
     * statusUpdate costs for the scan.
     */
    std::uint64_t readLastSubmittedRef(const Channel &c) const
    {
        return c.lastSubmittedRef();
    }

    /** Status-update scan cost across @p n channels. */
    Tick
    statusUpdateCost(std::size_t n) const
    {
        return cost.statusUpdateBase +
            cost.statusUpdatePerChannel * static_cast<Tick>(n);
    }

    /**
     * The task whose request currently occupies the execute engine.
     * This models the Section 6.2 vendor-assisted query ("identify the
     * currently running context"): without the token of a timeslice
     * policy, Disengaged Fair Queueing needs it to attribute a hung
     * device to the offender rather than to every blocked task.
     */
    Task *currentlyRunningTask() const;

  private:
    struct ParkedSubmission
    {
        int channelId;
        GpuRequest req;
    };

    void finishDoorbell(Task *t, int channel_id, GpuRequest req);

    EventQueue &eq;
    GpuDevice &dev;
    CostModel cost;
    ChannelPolicy policy;
    PollingService poller;
    ChannelTracker chanTracker;
    Scheduler *sched = nullptr;

    std::vector<Task *> taskList;
    IdMap<Channel *> channelRegistry;
    std::vector<Channel *> activeList;
    IdMap<ParkedSubmission> parked; // keyed by pid
    int nextPid = 1;
    std::uint64_t kills = 0;
};

} // namespace neon

#endif // NEON_OS_KERNEL_HH
