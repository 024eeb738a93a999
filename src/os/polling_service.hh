/**
 * @file
 * The kernel polling-thread service.
 *
 * Periodically iterates over kernel-resident structures looking for
 * reference-counter updates that indicate request completion. Here the
 * iteration itself is the scheduler's onPoll hook; this class supplies
 * the timing: a periodic tick.
 */

#ifndef NEON_OS_POLLING_SERVICE_HH
#define NEON_OS_POLLING_SERVICE_HH

#include <functional>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace neon
{

/** Periodic invocation of a completion-scan callback. */
class PollingService
{
  public:
    PollingService(EventQueue &eq, Tick period = msec(1))
        : eq(eq), pollPeriod(period)
    {
    }

    ~PollingService() { stop(); }

    PollingService(const PollingService &) = delete;
    PollingService &operator=(const PollingService &) = delete;

    Tick period() const { return pollPeriod; }

    /** Change the period; re-arms the pending tick if running. */
    void
    setPeriod(Tick p)
    {
        pollPeriod = p;
        if (running && pending != invalidEventId) {
            eq.declareLane(pollPeriod);
            eq.cancel(pending);
            scheduleNext();
        }
    }

    /** The completion scan; wired to Scheduler::onPoll by the kernel. */
    std::function<void(Tick)> onPoll;

    /** Begin periodic operation. */
    void
    start()
    {
        if (running)
            return;
        running = true;
        // Every tick is one period after the last, for the whole run.
        eq.declareLane(pollPeriod);
        scheduleNext();
    }

    void
    stop()
    {
        running = false;
        if (pending != invalidEventId) {
            eq.cancel(pending);
            pending = invalidEventId;
        }
    }

  private:
    void
    scheduleNext()
    {
        // Hot path: one of these per poll period per device, for the
        // whole run; must stay inside the callback's inline storage.
        auto tick = [this] { fire(); };
        static_assert(EventCallback::fitsInline<decltype(tick)>);
        pending = eq.scheduleIn(pollPeriod, std::move(tick));
    }

    void
    fire()
    {
        pending = invalidEventId;
        if (!running)
            return;
        if (onPoll)
            onPoll(eq.now());
        if (running && pending == invalidEventId)
            scheduleNext();
    }

    EventQueue &eq;
    Tick pollPeriod;
    bool running = false;
    EventId pending = invalidEventId;
};

} // namespace neon

#endif // NEON_OS_POLLING_SERVICE_HH
