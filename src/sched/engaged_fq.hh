/**
 * @file
 * Engaged (classic) start-time fair queueing — the comparison point
 * representing prior GPU schedulers that capture and order every
 * request (GERM, TimeGraph, Gdev and the network/storage fair queueing
 * family the paper cites).
 *
 * Every channel stays protected; every submission faults. Each request
 * receives a start tag max(system virtual time, task's last finish
 * tag) and a finish tag start + estimated size. One request occupies
 * the device at a time; on completion, the parked request with the
 * minimum start tag is dispatched. Request sizes are learned online
 * (EWMA of observed service).
 */

#ifndef NEON_SCHED_ENGAGED_FQ_HH
#define NEON_SCHED_ENGAGED_FQ_HH

#include <cstdint>
#include <map>

#include "os/kernel.hh"
#include "os/scheduler.hh"
#include "sched/vtime_tap.hh"

namespace neon
{

/** Tunables for the engaged fair-queueing baseline. */
struct EngagedFqConfig
{
    /** Initial request-size estimate before any observation. */
    static constexpr Tick initialEstimate = usec(50);

    /** EWMA weight of the newest observation. */
    static constexpr double estimateGain = 0.3;

    /**
     * Anticipatory dispatch delay after a completion, so that the
     * just-completed task's (sub-microsecond) resubmission can compete
     * for the slot instead of strictly alternating with parked peers —
     * the "deceptive idleness" remedy of anticipatory fair queueing
     * schedulers such as FlashFQ.
     */
    static constexpr Tick anticipation = usec(2);

    /** Time on device beyond which the owning task is killed. */
    Tick killThreshold = msec(200);
};

/** Classic SFQ with per-request interception. */
class EngagedFairQueueing : public Scheduler, public VirtualTimeTap
{
  public:
    EngagedFairQueueing(KernelModule &kernel,
                        const EngagedFqConfig &cfg = EngagedFqConfig());

    void onChannelActive(Channel &c) override;
    void onTaskExited(Task &t) override;
    FaultDecision onSubmitFault(Task &t, Channel &c,
                                const GpuRequest &req) override;
    void onPoll(Tick now) override;

    // VirtualTimeTap (cross-device aggregation); a task's vtime is its
    // finish tag.
    VirtualTimeTap *vtimeTap() override { return this; }
    Tick tapSystemVtime() const override { return sysV; }
    Tick tapTaskVtime(int pid) const override;

  private:
    struct TaskState
    {
        Tick finishTag = 0;
        Tick estSize = 0;
        Tick pendingStartTag = 0; ///< tag of a parked submission
    };

    TaskState &stateOf(int pid);
    void dispatched(int pid, Tick start_tag);
    void onCompletion(int pid, Tick service);
    void dispatchNext();

    EngagedFqConfig cfg;
    std::map<int, TaskState> tasks;

    Tick sysV = 0;
    bool busy = false;
    int servingPid = -1;
    Tick serviceBegan = 0;
};

} // namespace neon

#endif // NEON_SCHED_ENGAGED_FQ_HH
