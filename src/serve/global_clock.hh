/**
 * @file
 * GlobalVirtualClock: one speed-normalized virtual clock for the fleet.
 *
 * Each device's fair-queueing policy maintains a system virtual time
 * in its own device-time units: it advances with the per-task service
 * the device delivers, so an idle or over-committed device lags while
 * a lightly loaded one runs ahead. Normalizing by the device's speed
 * factor puts all devices on one work-equivalent scale (the MQFQ /
 * Gavel cross-device analogue of DFQ virtual time). The clock

 * aggregates those normalized times and derives two decisions:
 *
 *  - placement steering: an admitted session goes to the most-lagging
 *    device that still has a free slot (it is the device whose tenants
 *    have received the least normalized service — an idle device lags
 *    maximally and attracts work first);
 *  - migration: when a device lags the fleet's most-advanced device by
 *    more than a threshold, its locally most-ahead session moves to
 *    that ahead device, narrowing the spread from both sides.
 *
 * Decision logic is pure/static over DeviceClockSample vectors so it
 * unit-tests with hand-built snapshots; the instance methods only
 * gather samples from a live fleet.
 */

#ifndef NEON_SERVE_GLOBAL_CLOCK_HH
#define NEON_SERVE_GLOBAL_CLOCK_HH

#include <cstddef>
#include <vector>

#include "fleet/fleet_manager.hh"
#include "sim/types.hh"

namespace neon
{

/** One device's contribution to the global clock. */
struct DeviceClockSample
{
    std::size_t index = 0;
    double speedFactor = 1.0;
    bool hasVtime = false; ///< policy implements VirtualTimeTap
    Tick vtime = 0;        ///< raw system vtime (device-time units)
    Tick normVtime = 0;    ///< vtime x speedFactor (work units)
    std::size_t liveTasks = 0;
    bool up = true;        ///< down devices never steer or host migrants
};

/** A migration decision derived from one clock sample. */
struct MigrationPlan
{
    bool migrate = false;
    std::size_t from = 0; ///< over-committed (lagging) device
    std::size_t to = 0;   ///< most-advanced device with a free slot
    Tick lag = 0;         ///< normalized vtime spread driving the move
};

/** Aggregates per-device virtual times into one fleet clock. */
class GlobalVirtualClock
{
  public:
    /**
     * @p slots_per_device bounds live sessions per device for steering
     * eligibility and migration targets.
     */
    GlobalVirtualClock(FleetManager &fleet, std::size_t slots_per_device);

    /** Snapshot every device's normalized virtual time and live load. */
    std::vector<DeviceClockSample> sample() const;

    /** Steered placement for an admitted session. */
    std::size_t placeSteered() const;

    /** Migration decision under the given thresholds. */
    MigrationPlan checkMigration(Tick lag_threshold,
                                 std::size_t min_tasks) const;

    // Pure decision logic (unit-testable with synthetic samples).

    /**
     * Most-lagging device with a free slot; falls back to the device
     * with the fewest live sessions when every device is full.
     */
    static std::size_t
    pickLagging(const std::vector<DeviceClockSample> &devices,
                std::size_t slots_per_device);

    /**
     * From: the most-lagging device with >= @p min_tasks live sessions;
     * To: the most-advanced device with a free slot. Migrate only when
     * the normalized spread between them exceeds @p lag_threshold.
     */
    static MigrationPlan
    planMigration(const std::vector<DeviceClockSample> &devices,
                  Tick lag_threshold, std::size_t min_tasks,
                  std::size_t slots_per_device);

  private:
    FleetManager &fleet;
    std::size_t slotsPerDevice;
};

} // namespace neon

#endif // NEON_SERVE_GLOBAL_CLOCK_HH
