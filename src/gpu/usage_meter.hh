/**
 * @file
 * Ground-truth device-time accounting.
 *
 * The meter records exactly how the device spent its time. It exists for
 * metrics and tests only: schedulers must not read it (the whole point
 * of the paper is that the OS lacks this information and must estimate
 * it through interception and sampling).
 *
 * Per-pid counters live in one slot per live pid; retiring a pid hands
 * back its final usage, folds it into the retired totals and frees the
 * slot. The meter therefore holds state for live tasks only, however
 * long the run, and a charge scans the device's few live slots instead
 * of a map of every pid the device ever ran. The device-wide totals
 * are always live plus retired usage.
 */

#ifndef NEON_GPU_USAGE_METER_HH
#define NEON_GPU_USAGE_METER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "gpu/request.hh"
#include "sim/types.hh"

namespace neon
{

/** Per-task and aggregate busy-time counters for the device. */
class UsageMeter
{
  public:
    /** One pid's accumulated usage. */
    struct Usage
    {
        Tick busy = 0;
        std::uint64_t requests = 0;
    };

    /**
     * Attribute service time to a task. A pid without a slot gets one
     * on its first charge.
     */
    void
    recordBusy(int task_id, Tick duration, RequestClass cls)
    {
        slotOf(task_id).usage.busy += duration;
        chargeTotals(duration, cls);
    }

    /** A completed request: its service time plus the request count. */
    void
    recordRequest(int task_id, Tick service, RequestClass cls)
    {
        Usage &u = slotOf(task_id).usage;
        u.busy += service;
        ++u.requests;
        chargeTotals(service, cls);
    }

    /** Record arbitration overhead (context/channel switches). */
    void recordSwitch(Tick duration) { switchOverhead += duration; }

    /** A live pid's usage; zero for a pid without a slot. */
    Usage
    usageOf(int task_id) const
    {
        for (const Slot &s : live) {
            if (s.pid == task_id)
                return s.usage;
        }
        return {};
    }

    Tick busyOf(int task_id) const { return usageOf(task_id).busy; }

    /**
     * Fold a pid's usage into the retired totals and free its slot
     * (swap-and-pop). Returns the pid's final usage; zero if it never
     * ran.
     */
    Usage
    retire(int task_id)
    {
        for (Slot &s : live) {
            if (s.pid != task_id)
                continue;
            const Usage u = s.usage;
            retired.busy += u.busy;
            retired.requests += u.requests;
            s = live.back();
            live.pop_back();
            return u;
        }
        return {};
    }

    /** Pids holding a slot: live tasks, plus killed ones never retired. */
    std::size_t liveSlots() const { return live.size(); }

    /** Busy time across live and retired pids. */
    Tick totalBusy() const { return busy; }

    /** Completed requests: the live slots plus the retired total. */
    std::uint64_t
    totalRequests() const
    {
        std::uint64_t n = retired.requests;
        for (const Slot &s : live)
            n += s.usage.requests;
        return n;
    }

    Tick totalDmaBusy() const { return dmaBusy; }
    Tick totalSwitchOverhead() const { return switchOverhead; }

  private:
    struct Slot
    {
        int pid;
        Usage usage;
    };

    Slot &
    slotOf(int task_id)
    {
        for (Slot &s : live) {
            if (s.pid == task_id)
                return s;
        }
        live.push_back({task_id, {}});
        return live.back();
    }

    void
    chargeTotals(Tick duration, RequestClass cls)
    {
        busy += duration;
        if (cls == RequestClass::Dma)
            dmaBusy += duration;
    }

    std::vector<Slot> live; ///< one per live pid, unordered
    Usage retired;          ///< folded in by retire()
    Tick busy = 0;          ///< live plus retired, kept as one counter
    Tick dmaBusy = 0;
    Tick switchOverhead = 0;
};

} // namespace neon

#endif // NEON_GPU_USAGE_METER_HH
