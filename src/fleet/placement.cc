#include "fleet/placement.hh"

#include "sim/logging.hh"

namespace neon
{

std::string
placementKindName(PlacementKind k)
{
    switch (k) {
      case PlacementKind::RoundRobin:
        return "round-robin";
      case PlacementKind::LeastLoaded:
        return "least-loaded";
      case PlacementKind::Sticky:
        return "sticky";
      case PlacementKind::HeterogeneityAware:
        return "heterogeneity-aware";
    }
    return "?";
}

namespace
{

constexpr std::size_t noExclusion = static_cast<std::size_t>(-1);

/** Any device currently up? (All-down fleets fall back to ignoring it.) */
bool
anyUp(const std::vector<DeviceLoadView> &devices)
{
    for (const DeviceLoadView &d : devices) {
        if (d.up)
            return true;
    }
    return false;
}

/**
 * Index of the device minimizing busy time, tie-broken by live task
 * count and then by index. @p exclude names a device to skip (sticky
 * overflow must not spill back onto the over-capacity home device);
 * it is ignored when it would leave no candidates.
 */
std::size_t
leastLoadedIndex(const std::vector<DeviceLoadView> &devices,
                 std::size_t exclude = noExclusion)
{
    const bool skip_down = anyUp(devices);
    std::size_t best = 0;
    double best_busy = 0.0, best_tasks = 0.0;
    bool first = true;
    for (const DeviceLoadView &d : devices) {
        if (d.index == exclude && devices.size() > 1)
            continue;
        if (skip_down && !d.up)
            continue;
        const double busy = static_cast<double>(d.busyTime);
        const double tasks = static_cast<double>(d.assignedTasks);
        if (first || busy < best_busy ||
            (busy == best_busy && tasks < best_tasks)) {
            first = false;
            best = d.index;
            best_busy = busy;
            best_tasks = tasks;
        }
    }
    // Everything filtered (exclude + down): retry without exclusion.
    if (first && exclude != noExclusion)
        return leastLoadedIndex(devices);
    return best;
}

} // namespace

std::size_t
RoundRobinPlacement::place(const std::vector<DeviceLoadView> &devices,
                           const PlacementRequest &req)
{
    (void)req;
    // Rotate past down devices; an all-down fleet keeps the plain
    // rotation so behavior is unchanged when the fault plane is idle.
    if (anyUp(devices)) {
        for (std::size_t k = 0; k < devices.size(); ++k) {
            const std::size_t slot = (next + k) % devices.size();
            if (devices[slot].up) {
                next = (slot + 1) % devices.size();
                return devices[slot].index;
            }
        }
    }
    const std::size_t chosen = next % devices.size();
    next = (next + 1) % devices.size();
    return devices[chosen].index;
}

std::size_t
LeastLoadedPlacement::place(const std::vector<DeviceLoadView> &devices,
                            const PlacementRequest &req)
{
    (void)req;
    return leastLoadedIndex(devices);
}

std::string
StickyPlacement::keyOf(const PlacementRequest &req)
{
    return req.affinityKey.empty() ? req.label : req.affinityKey;
}

std::size_t
StickyPlacement::place(const std::vector<DeviceLoadView> &devices,
                       const PlacementRequest &req)
{
    auto it = affinity.find(keyOf(req));
    if (it != affinity.end()) {
        // Prefer the mapped device unless it is over capacity or down;
        // spill keeps the mapping so later arrivals return once load
        // drains (or the device is repaired).
        for (const DeviceLoadView &d : devices) {
            if (d.index == it->second.device) {
                if (d.up && d.assignedTasks < capacity)
                    return d.index;
                break;
            }
        }
        return leastLoadedIndex(devices, it->second.device);
    }

    const std::size_t chosen = leastLoadedIndex(devices);
    affinity.emplace(keyOf(req), Mapping{chosen, 0});
    return chosen;
}

void
StickyPlacement::noteTaskPlaced(const PlacementRequest &req,
                                std::size_t device)
{
    // Forced placements (serve steering, migration) reach here without
    // a place() call, so create the mapping on demand. The live count
    // belongs to the key, not the device the task landed on: a spilled
    // task still pins its tenant's affinity.
    auto it = affinity.emplace(keyOf(req), Mapping{device, 0}).first;
    ++it->second.liveTasks;
}

void
StickyPlacement::noteTaskDeparted(const PlacementRequest &req,
                                  std::size_t device)
{
    (void)device;
    auto it = affinity.find(keyOf(req));
    if (it == affinity.end())
        return;
    if (it->second.liveTasks > 0)
        --it->second.liveTasks;
    // Last live task gone: evict so a returning tenant re-places
    // against current load instead of a dead mapping.
    if (it->second.liveTasks == 0)
        affinity.erase(it);
}

int
StickyPlacement::preferredOf(const std::string &key) const
{
    auto it = affinity.find(key);
    return it == affinity.end() ? -1
                                : static_cast<int>(it->second.device);
}

std::size_t
HeterogeneityAwarePlacement::place(
    const std::vector<DeviceLoadView> &devices,
    const PlacementRequest &req)
{
    // Score = normalized load after accepting the task: (resident
    // demand + arriving demand) / speed, tie-broken by normalized busy
    // time. Faster devices absorb proportionally more demand,
    // reproducing a throughput-aware assignment.
    const bool skip_down = anyUp(devices);
    std::size_t best = 0;
    double best_score = 0.0, best_busy = 0.0;
    bool first = true;
    for (const DeviceLoadView &d : devices) {
        if (skip_down && !d.up)
            continue;
        const double speed = d.speedFactor > 0.0 ? d.speedFactor : 1.0;
        const double score = (d.assignedDemand + req.demand) / speed;
        const double busy = static_cast<double>(d.busyTime) / speed;
        if (first || score < best_score ||
            (score == best_score && busy < best_busy)) {
            first = false;
            best = d.index;
            best_score = score;
            best_busy = busy;
        }
    }
    return best;
}

std::unique_ptr<PlacementPolicy>
makePlacementPolicy(const FleetConfig &cfg)
{
    switch (cfg.placement) {
      case PlacementKind::RoundRobin:
        return std::make_unique<RoundRobinPlacement>();
      case PlacementKind::LeastLoaded:
        return std::make_unique<LeastLoadedPlacement>();
      case PlacementKind::Sticky:
        return std::make_unique<StickyPlacement>(cfg.stickyCapacity);
      case PlacementKind::HeterogeneityAware:
        return std::make_unique<HeterogeneityAwarePlacement>();
    }
    panic("unknown placement kind");
}

} // namespace neon
