/**
 * @file
 * Pluggable task-to-device placement policies.
 *
 * Policies are pure routing logic: they see a snapshot of per-device
 * load (DeviceLoadView) plus a description of the arriving task
 * (PlacementRequest) and return a device index. Keeping them free of
 * simulator state makes them unit-testable with hand-built snapshots.
 */

#ifndef NEON_FLEET_PLACEMENT_HH
#define NEON_FLEET_PLACEMENT_HH

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "fleet/fleet_config.hh"
#include "sim/types.hh"

namespace neon
{

/** Snapshot of one device's load at placement time. */
struct DeviceLoadView
{
    std::size_t index = 0;

    /** Relative execution speed (DeviceConfig::speedFactor). */
    double speedFactor = 1.0;

    /** Live tasks currently placed on the device. */
    std::size_t assignedTasks = 0;

    /** Sum of the live tasks' demand hints (PlacementRequest::demand). */
    double assignedDemand = 0.0;

    /** Accumulated device busy time (UsageMeter::totalBusy). */
    Tick busyTime = 0;

    /**
     * Availability: false while the device is Down (fault plane).
     * Policies never place onto a down device while any up device
     * exists.
     */
    bool up = true;
};

/** Description of the task being placed. */
struct PlacementRequest
{
    std::string label;

    /**
     * Sticky-affinity key: tasks sharing a key prefer the same device
     * (think per-function affinity in a serverless GPU pool). Empty
     * means no affinity; Sticky then falls back to the label.
     */
    std::string affinityKey;

    /** Relative expected load of the task (heterogeneity weighting). */
    double demand = 1.0;
};

/** Base class for placement policies. */
class PlacementPolicy
{
  public:
    virtual ~PlacementPolicy() = default;

    /**
     * Choose a device for @p req given current loads. @p devices is
     * never empty and is ordered by device index. Pure routing: the
     * fleet reports the outcome through noteTaskPlaced (which also
     * covers forced placements that bypass place(), e.g. serve-layer
     * steering and migration).
     */
    virtual std::size_t place(const std::vector<DeviceLoadView> &devices,
                              const PlacementRequest &req) = 0;

    /** A task from @p req now lives on @p device (any placement path). */
    virtual void
    noteTaskPlaced(const PlacementRequest &req, std::size_t device)
    {
        (void)req;
        (void)device;
    }

    /**
     * A task placed from @p req departed (retired, migrated away, or
     * killed). Policies drop per-task bookkeeping here — StickyPlacement
     * evicts an affinity key once its last live task is gone, so a
     * returning tenant re-places against current load instead of a dead
     * mapping.
     */
    virtual void
    noteTaskDeparted(const PlacementRequest &req, std::size_t device)
    {
        (void)req;
        (void)device;
    }
};

/** Strict rotation, ignoring load. */
class RoundRobinPlacement : public PlacementPolicy
{
  public:
    std::size_t place(const std::vector<DeviceLoadView> &devices,
                      const PlacementRequest &req) override;

  private:
    std::size_t next = 0;
};

/** Least accumulated busy time, tie-broken by task count then index. */
class LeastLoadedPlacement : public PlacementPolicy
{
  public:
    std::size_t place(const std::vector<DeviceLoadView> &devices,
                      const PlacementRequest &req) override;
};

/** Affinity-first with overflow spill (MQFQ-Sticky flavour). */
class StickyPlacement : public PlacementPolicy
{
  public:
    explicit StickyPlacement(std::size_t capacity) : capacity(capacity) {}

    std::size_t place(const std::vector<DeviceLoadView> &devices,
                      const PlacementRequest &req) override;

    void noteTaskPlaced(const PlacementRequest &req,
                        std::size_t device) override;
    void noteTaskDeparted(const PlacementRequest &req,
                          std::size_t device) override;

    /** Preferred device of @p key; -1 when unmapped (tests). */
    int preferredOf(const std::string &key) const;

  private:
    struct Mapping
    {
        std::size_t device = 0;
        std::size_t liveTasks = 0; ///< live tasks sharing the key
    };

    static std::string keyOf(const PlacementRequest &req);

    std::size_t capacity;
    std::map<std::string, Mapping> affinity;
};

/** Normalized-load placement for heterogeneous fleets (Gavel flavour). */
class HeterogeneityAwarePlacement : public PlacementPolicy
{
  public:
    std::size_t place(const std::vector<DeviceLoadView> &devices,
                      const PlacementRequest &req) override;
};

/** Build the policy selected by @p cfg. */
std::unique_ptr<PlacementPolicy>
makePlacementPolicy(const FleetConfig &cfg);

} // namespace neon

#endif // NEON_FLEET_PLACEMENT_HH
