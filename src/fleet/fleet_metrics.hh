/**
 * @file
 * Fleet-level fairness and throughput accounting.
 *
 * Single-device fairness compares per-task service within one
 * scheduler's reach; a fleet must also show that placement did not
 * concentrate service on a subset of tasks or devices. The helpers here
 * aggregate per-device ground-truth usage (and, where the per-device
 * policy is a fair-queueing one, its published virtual times) into
 * cross-device indices.
 */

#ifndef NEON_FLEET_FLEET_METRICS_HH
#define NEON_FLEET_FLEET_METRICS_HH

#include <cstdint>
#include <vector>

#include "fleet/fleet_manager.hh"
#include "metrics/efficiency.hh"

namespace neon
{

/** Cross-device fairness summary for one measurement window. */
struct FleetFairnessReport
{
    /**
     * Jain index over per-task device time across the whole fleet,
     * normalized by each task's device speed so a task served by a 2x
     * device is credited 2x the work. 1.0 = perfectly even service.
     */
    double taskFairness = 1.0;

    /**
     * Jain index over per-device busy (wall) time: how evenly
     * placement kept devices occupied. A fully proportional placement
     * on a heterogeneous fleet scores 1 — the fast device does more
     * work in the same busy time.
     */
    double deviceBalance = 1.0;

    /**
     * Spread (max - min, in ms) of the per-device system virtual times
     * the fair-queueing policies (DisengagedFq, EngagedFq) publish,
     * not speed-normalized; 0 under any other policy. A small spread
     * means the per-device fair queues advanced in step, i.e. no
     * device's tenants got globally ahead.
     */
    double vtimeSpreadMs = 0.0;
};

/**
 * Jain fairness over per-task busy-time deltas. @p busy must be in
 * placement order (FleetManager::taskUsage), with each entry already
 * adjusted to the measurement window by the caller.
 */
inline double
fleetTaskFairness(const std::vector<FleetTaskUsage> &usage,
                  const FleetManager &fleet)
{
    std::vector<double> work;
    work.reserve(usage.size());
    for (const FleetTaskUsage &u : usage) {
        const double speed = fleet.speedFactors()[u.device];
        work.push_back(static_cast<double>(u.busy) *
                       (speed > 0.0 ? speed : 1.0));
    }
    return jainIndex(work);
}

/** Jain fairness over per-device busy (wall) time. */
inline double
fleetDeviceBalance(const std::vector<Tick> &per_device_busy)
{
    std::vector<double> load;
    load.reserve(per_device_busy.size());
    for (Tick busy : per_device_busy)
        load.push_back(static_cast<double>(busy));
    return jainIndex(load);
}

/**
 * Max-min spread of the per-device system virtual times the fleet's
 * fair-queueing policies publish (FleetManager::publishedVtimes), in
 * milliseconds; devices whose policy keeps none are skipped. A genuine
 * 0 means an idle fair-queueing device — it counts toward the spread
 * (it IS maximally behind). @p baseline (a publishedVtimes() copy,
 * e.g. taken at the start of a measurement window) is subtracted per
 * device when provided, so the spread covers only the window's
 * advancement.
 */
inline double
fleetVtimeSpreadMs(const FleetManager &fleet,
                   const std::vector<Tick> &baseline = {})
{
    const std::vector<Tick> &vts = fleet.publishedVtimes();
    Tick lo = 0, hi = 0;
    bool any = false;
    for (std::size_t i = 0; i < vts.size(); ++i) {
        if (vts[i] == FleetManager::noVtime)
            continue;
        Tick v = vts[i];
        if (i < baseline.size() && baseline[i] != FleetManager::noVtime)
            v -= baseline[i];
        if (!any) {
            lo = hi = v;
            any = true;
        } else {
            lo = v < lo ? v : lo;
            hi = v > hi ? v : hi;
        }
    }
    return any ? toMsec(hi - lo) : 0.0;
}

/** Aggregate requests-per-second across the fleet in a window. */
inline double
fleetThroughputRps(std::uint64_t requests, Tick elapsed)
{
    return elapsed > 0 ? static_cast<double>(requests) / toSec(elapsed)
                       : 0.0;
}

} // namespace neon

#endif // NEON_FLEET_FLEET_METRICS_HH
