/**
 * @file
 * Disengaged Timeslice (paper 3.2).
 *
 * Identical policy to the engaged timeslice, but the token holder's
 * channel registers are left unprotected for the duration of its slice,
 * so its submissions proceed at direct-access speed. Everyone else
 * still faults and is delayed. Re-engaging at the slice edge requires a
 * status-update scan of the holder's command queues (to learn the
 * last-submitted reference values) before drain completion can be
 * observed.
 */

#ifndef NEON_SCHED_DISENGAGED_TIMESLICE_HH
#define NEON_SCHED_DISENGAGED_TIMESLICE_HH

#include "sched/timeslice.hh"

namespace neon
{

/** Timeslice with direct access for the token holder. */
class DisengagedTimeslice : public TimesliceScheduler
{
  public:
    DisengagedTimeslice(KernelModule &kernel,
                        const TimesliceConfig &cfg = TimesliceConfig())
        : TimesliceScheduler(kernel, cfg)
    {
    }

    void
    onChannelActive(Channel &c) override
    {
        // A channel appearing mid-slice for the current holder gets
        // direct access immediately; all others stay protected.
        TimesliceScheduler::onChannelActive(c);
        if (tokenHolder && c.context().taskId() == tokenHolder->pid())
            kernel.unprotectChannel(c);
    }

  protected:
    void
    onGrant(Task &t) override
    {
        for (Channel *c : t.channels())
            kernel.unprotectChannel(*c);
    }

    void
    onRevoke(Task &t) override
    {
        for (Channel *c : t.channels())
            kernel.protectChannel(*c);
    }

    Tick
    statusUpdateDelay() const override
    {
        // Command-queue scan + page-table walks to recover the last
        // submitted reference values, plus protection toggling.
        const std::size_t n =
            drainingTask ? drainingTask->channels().size() : 1;
        return kernel.statusUpdateCost(n) + kernel.protectionCost(n);
    }
};

} // namespace neon

#endif // NEON_SCHED_DISENGAGED_TIMESLICE_HH
