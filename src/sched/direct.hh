/**
 * @file
 * Direct device access: the no-management baseline.
 *
 * Every channel is left unprotected the moment it becomes active, so
 * applications submit straight from user space. This is the paper's
 * comparison point: maximal efficiency, no fairness, no protection.
 */

#ifndef NEON_SCHED_DIRECT_HH
#define NEON_SCHED_DIRECT_HH

#include "obs/trace.hh"
#include "os/kernel.hh"
#include "os/scheduler.hh"

namespace neon
{

/** Baseline: unmediated direct-mapped access for everyone. */
class DirectScheduler : public Scheduler
{
  public:
    explicit DirectScheduler(KernelModule &kernel) : Scheduler(kernel) {}

    void
    onChannelActive(Channel &c) override
    {
        NEON_TRACE(obs::TraceCategory::Sched, obs::TraceKind::Instant,
                   "direct.unprotect",
                   obs::TraceIds{kernel.deviceIndex(),
                                 c.context().taskId(), -1},
                   c.id(), 0);
        kernel.unprotectChannel(c);
    }

    FaultDecision
    onSubmitFault(Task &, Channel &, const GpuRequest &) override
    {
        // Only reachable in the window before onChannelActive runs.
        return FaultDecision::Allow;
    }
};

} // namespace neon

#endif // NEON_SCHED_DIRECT_HH
