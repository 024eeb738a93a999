/**
 * @file
 * The event-based scheduling interface the kernel module exports.
 *
 * This is the paper's central abstraction: request-submission events
 * (delivered via interception faults), completion observation (via the
 * polling service), and timers are all a policy gets — plus control over
 * page protection, parked-task release, and task kill.
 */

#ifndef NEON_OS_SCHEDULER_HH
#define NEON_OS_SCHEDULER_HH

#include "gpu/request.hh"
#include "sim/types.hh"

namespace neon
{

class Channel;
class KernelModule;
class Task;
class VirtualTimeTap;

/** What to do with an intercepted submission. */
enum class FaultDecision
{
    Allow, ///< charge the interception cost, then let it reach the device
    Park,  ///< hold the request (and the submitting thread) for later
};

/**
 * Base class for OS-level accelerator schedulers.
 *
 * Concrete policies live in src/sched; the kernel invokes these hooks
 * and policies act back through the KernelModule's control interface.
 */
class Scheduler
{
  public:
    explicit Scheduler(KernelModule &kernel) : kernel(kernel) {}
    virtual ~Scheduler() = default;

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** World start: install timers, initial protection, etc. */
    virtual void onStart() {}

    /** A task began running (may not own channels yet). */
    virtual void onTaskStarted(Task &) {}

    /** A task exited or was killed; its channels are already gone. */
    virtual void onTaskExited(Task &) {}

    /** A channel finished initialization (all three VMAs tracked). */
    virtual void onChannelActive(Channel &) {}

    /** A channel was closed/destroyed. */
    virtual void onChannelClosed(Channel &) {}

    /** An intercepted doorbell write; runs in process context. */
    virtual FaultDecision
    onSubmitFault(Task &task, Channel &channel, const GpuRequest &req) = 0;

    /** Polling-service tick. */
    virtual void onPoll(Tick now) { (void)now; }

    /**
     * The policy's virtual-time tap (sched/vtime_tap.hh), or nullptr
     * if it keeps no virtual time.
     */
    virtual VirtualTimeTap *vtimeTap() { return nullptr; }

  protected:
    KernelModule &kernel;
};

} // namespace neon

#endif // NEON_OS_SCHEDULER_HH
