/**
 * @file
 * Token-based timeslice scheduling with overuse control (paper 3.1).
 *
 * A token circulates among tasks owning active channels; only the
 * holder may submit. In the engaged variant every submission is
 * intercepted (fault + handler cost on each request). At the end of a
 * slice the scheduler waits for the holder's outstanding requests to
 * drain (detected through reference-counter polling, so at polling
 * granularity), charges any overrun to the holder's overuse ledger, and
 * skips future turns when the accrued overuse exceeds a full slice.
 * A drain that exceeds the kill threshold marks the holder as
 * malicious/buggy and the task is killed (the device aborts its
 * channels and the driver exit protocol reclaims resources).
 */

#ifndef NEON_SCHED_TIMESLICE_HH
#define NEON_SCHED_TIMESLICE_HH

#include <vector>

#include "os/kernel.hh"
#include "os/scheduler.hh"
#include "sim/id_map.hh"

namespace neon
{

/** Tunables shared by both timeslice variants. */
struct TimesliceConfig
{
    /** Timeslice length (paper: 30 ms). */
    Tick slice = msec(30);

    /**
     * Maximum time to wait for the holder to drain past the slice edge
     * before declaring the task aberrant and killing it.
     */
    Tick killThreshold = msec(200);
};

/**
 * Engaged timeslice: full per-request interception.
 */
class TimesliceScheduler : public Scheduler
{
  public:
    TimesliceScheduler(KernelModule &kernel,
                       const TimesliceConfig &cfg = TimesliceConfig());

    void onChannelActive(Channel &c) override;
    void onTaskExited(Task &t) override;
    FaultDecision onSubmitFault(Task &t, Channel &c,
                                const GpuRequest &req) override;
    void onPoll(Tick now) override;

    /** Current token holder (tests), nullptr if none. */
    const Task *holder() const { return tokenHolder; }

    /** Number of turn-skips applied so far (tests). */
    std::uint64_t skips() const { return nSkips; }

  protected:
    /** Hook: the token was granted to @p t (disengaged variant reacts). */
    virtual void onGrant(Task &t) { (void)t; }

    /** Hook: the token is being revoked from @p t at slice end. */
    virtual void onRevoke(Task &t) { (void)t; }

    /**
     * Extra latency between slice expiry and the first moment drain
     * completion can be observed (re-engagement status update for the
     * disengaged variant; zero when engaged, which tracks submissions
     * as they happen).
     */
    virtual Tick statusUpdateDelay() const { return 0; }

    /** Grant the token to @p t and start its slice timer. */
    void grant(Task &t);

    /** Slice timer expiry: revoke and begin the drain. */
    void sliceExpired();

    /** Check whether the previous holder's channels have drained. */
    void checkDrain(Tick now);

    /** All submitted requests on @p t's channels completed? */
    bool drainedOut(const Task &t) const;

    /** Advance the token to the next eligible task. */
    void passToken();

    TimesliceConfig cfg;
    Task *tokenHolder = nullptr;
    int lastHolderPid = 0;
    Tick sliceEnd = 0;
    EventId sliceTimer = invalidEventId;

    /** Drain state: set while waiting for the ex-holder's requests. */
    Task *drainingTask = nullptr;
    Tick drainBegin = 0;
    Tick drainReadyAt = 0;

    IdMap<Tick> overuse; // by pid
    std::uint64_t nSkips = 0;

    /** passToken's candidates (kept for capacity). */
    std::vector<Task *> rotation;
};

} // namespace neon

#endif // NEON_SCHED_TIMESLICE_HH
