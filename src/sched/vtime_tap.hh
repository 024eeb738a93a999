/**
 * @file
 * Read-only virtual-time tap exported by fair-queueing schedulers.
 *
 * Cross-device aggregation (the serve layer's GlobalVirtualClock,
 * fleet-level fairness metrics) needs each device's notion of system
 * virtual time and per-task progress without caring which concrete
 * fair-queueing policy runs there. Policies that maintain virtual
 * times implement this interface alongside Scheduler and return
 * themselves from Scheduler::vtimeTap(), which is how the device stack
 * finds the tap at wiring time.
 *
 * The tap is strictly observational: it exposes estimates the policy
 * already maintains (the paper's point is that the OS has no ground
 * truth), and consumers must not feed device-meter data back through
 * it.
 *
 * Besides the virtual calls, a policy publishes its system virtual
 * time into one cell of a dense fleet-owned array (publishTo), at the
 * one site where it changes, so a fleet-wide reader touches one array
 * instead of every device's scheduler.
 *
 * Sharded runs: taps and cells are read only from the coordinator —
 * the global clock's tick is a control-queue event, executed at a
 * window barrier with every shard worker parked — so the snapshot is
 * a consistent fleet-wide view at the barrier time and never races
 * shard execution. Shard threads write the cells of their own devices
 * during the parallel phase; the barrier orders those writes before
 * the coordinator's reads.
 */

#ifndef NEON_SCHED_VTIME_TAP_HH
#define NEON_SCHED_VTIME_TAP_HH

#include "sim/types.hh"

namespace neon
{

/** Virtual-time observability for fair-queueing policies. */
class VirtualTimeTap
{
  public:
    virtual ~VirtualTimeTap() = default;

    /** The policy's system virtual time (device-time units). */
    virtual Tick tapSystemVtime() const = 0;

    /**
     * Task @p pid's virtual time — its attributed service level. Tasks
     * the policy has not seen report 0 (maximally lagging).
     */
    virtual Tick tapTaskVtime(int pid) const = 0;

    /**
     * Mirror the system virtual time into @p cell from now on; the
     * cell takes the current value at once.
     */
    void
    publishTo(Tick *cell)
    {
        published = cell;
        *cell = tapSystemVtime();
    }

  protected:
    /** Call wherever the system virtual time changes. */
    void
    publishSystemVtime(Tick v)
    {
        if (published)
            *published = v;
    }

  private:
    Tick *published = nullptr;
};

} // namespace neon

#endif // NEON_SCHED_VTIME_TAP_HH
