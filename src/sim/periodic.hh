/**
 * @file
 * Periodic: a recurring virtual-time timer.
 *
 * NEON's kernel module is built around one periodic service, the
 * polling thread that reads every channel's reference counter once per
 * period. The simulator's other cadences (the watchdog scan, the audit
 * pass, metric sampling, analysis windows and the serve layer's global
 * clock) follow the same pattern, and all of them use this class.
 *
 * Ticks fall at start() + k x period. The next tick is armed after the
 * callback returns, so an event the callback schedules for the instant
 * of the next tick runs before that tick. The timer declares no event
 * queue lane: an owner whose period deserves one declares it itself.
 */

#ifndef NEON_SIM_PERIODIC_HH
#define NEON_SIM_PERIODIC_HH

#include <functional>
#include <utility>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace neon
{

/** Calls a function every period of virtual time while running. */
class Periodic
{
  public:
    Periodic(EventQueue &eq, Tick period, std::function<void()> fn)
        : eq(eq), period(period), fn(std::move(fn))
    {
    }

    ~Periodic() { stop(); }

    Periodic(const Periodic &) = delete;
    Periodic &operator=(const Periodic &) = delete;

    /**
     * Arm the first tick one period from now. Does nothing while the
     * timer runs, or when the period is not positive.
     */
    void
    start()
    {
        if (running || period <= 0)
            return;
        running = true;
        arm();
    }

    /** Cancel the pending tick. Idempotent; the callback may call it. */
    void
    stop()
    {
        running = false;
        eq.cancel(pending);
        pending = invalidEventId;
    }

  private:
    void
    arm()
    {
        // Hot path: the kernel poller's tick recurs every poll period
        // on every device, so it must stay inside the inline storage.
        auto tick = [this] { fire(); };
        static_assert(EventCallback::fitsInline<decltype(tick)>);
        pending = eq.scheduleIn(period, std::move(tick));
    }

    void
    fire()
    {
        pending = invalidEventId;
        fn();
        // A callback that stopped and restarted the timer armed it
        // already.
        if (running && pending == invalidEventId)
            arm();
    }

    EventQueue &eq;
    const Tick period;
    std::function<void()> fn;
    bool running = false;
    EventId pending = invalidEventId;
};

} // namespace neon

#endif // NEON_SIM_PERIODIC_HH
