/**
 * @file
 * Unit tests for the fleet placement policies: deterministic routing,
 * load balance under skew, sticky affinity and overflow spill, and
 * heterogeneity-aware proportional assignment.
 */

#include <gtest/gtest.h>

#include <typeindex>
#include <utility>
#include <vector>

#include "fleet/placement.hh"

namespace neon
{
namespace
{

std::vector<DeviceLoadView>
homogeneous(std::size_t n)
{
    std::vector<DeviceLoadView> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i].index = i;
    return v;
}

PlacementRequest
req(const std::string &label, const std::string &affinity = "")
{
    PlacementRequest r;
    r.label = label;
    r.affinityKey = affinity;
    return r;
}

TEST(RoundRobinPlacement, CyclesDeterministically)
{
    RoundRobinPlacement p;
    auto devices = homogeneous(3);
    for (int round = 0; round < 3; ++round) {
        EXPECT_EQ(p.place(devices, req("a")), 0u);
        EXPECT_EQ(p.place(devices, req("b")), 1u);
        EXPECT_EQ(p.place(devices, req("c")), 2u);
    }
}

TEST(RoundRobinPlacement, IgnoresLoad)
{
    RoundRobinPlacement p;
    auto devices = homogeneous(2);
    devices[0].busyTime = sec(100); // heavily loaded, still first
    EXPECT_EQ(p.place(devices, req("a")), 0u);
    EXPECT_EQ(p.place(devices, req("b")), 1u);
}

TEST(LeastLoadedPlacement, PicksIdleDeviceUnderSkew)
{
    LeastLoadedPlacement p;
    auto devices = homogeneous(3);
    devices[0].busyTime = msec(800);
    devices[1].busyTime = msec(10);
    devices[2].busyTime = msec(300);
    EXPECT_EQ(p.place(devices, req("a")), 1u);

    // Skew flips; the policy follows.
    devices[1].busyTime = sec(2);
    EXPECT_EQ(p.place(devices, req("b")), 2u);
}

TEST(LeastLoadedPlacement, TieBreaksByTaskCountThenIndex)
{
    LeastLoadedPlacement p;
    auto devices = homogeneous(3);
    devices[0].assignedTasks = 2;
    devices[1].assignedTasks = 1;
    EXPECT_EQ(p.place(devices, req("a")), 2u); // zero tasks wins

    devices[2].assignedTasks = 1;
    EXPECT_EQ(p.place(devices, req("b")), 1u); // equal count: low index
}

TEST(LeastLoadedPlacement, BalancesSequentialArrivals)
{
    // Simulate spawn-time placement: tasks arrive one by one and the
    // snapshot's task counts grow accordingly. Arrivals must spread.
    LeastLoadedPlacement p;
    auto devices = homogeneous(4);
    std::vector<int> perDevice(4, 0);
    for (int i = 0; i < 8; ++i) {
        const std::size_t d = p.place(devices, req("t"));
        ++perDevice[d];
        ++devices[d].assignedTasks;
    }
    for (int count : perDevice)
        EXPECT_EQ(count, 2);
}

TEST(StickyPlacement, SameKeyPrefersTheSameDevice)
{
    StickyPlacement p(4);
    auto devices = homogeneous(3);
    const std::size_t first = p.place(devices, req("a", "tenantX"));
    ++devices[first].assignedTasks;

    // Make another device strictly less loaded; affinity still wins.
    devices[(first + 1) % 3].busyTime = 0;
    devices[first].busyTime = msec(50);
    EXPECT_EQ(p.place(devices, req("b", "tenantX")), first);
    EXPECT_EQ(p.preferredOf("tenantX"), static_cast<int>(first));
}

TEST(StickyPlacement, FallsBackToLabelWhenNoKey)
{
    StickyPlacement p(4);
    auto devices = homogeneous(2);
    const std::size_t first = p.place(devices, req("lbl"));
    ++devices[first].assignedTasks;
    EXPECT_EQ(p.place(devices, req("lbl")), first);
}

TEST(StickyPlacement, OverflowSpillsToLeastLoaded)
{
    StickyPlacement p(2); // capacity: 2 tasks per device
    auto devices = homogeneous(3);

    const std::size_t home = p.place(devices, req("a", "hot"));
    ++devices[home].assignedTasks;
    EXPECT_EQ(p.place(devices, req("b", "hot")), home);
    ++devices[home].assignedTasks;

    // Home is at capacity: the next arrival spills elsewhere — even
    // when home is the least-loaded device by busy time.
    devices[home].busyTime = 0;
    for (auto &d : devices) {
        if (d.index != home)
            d.busyTime = msec(50);
    }
    const std::size_t spill = p.place(devices, req("c", "hot"));
    EXPECT_NE(spill, home);
    ++devices[spill].assignedTasks;

    // ...but the mapping survives, so arrivals return once it drains.
    devices[home].assignedTasks = 1;
    EXPECT_EQ(p.place(devices, req("d", "hot")), home);
}

TEST(StickyPlacement, OverflowStaysHomeWhenEveryOtherDeviceIsDown)
{
    // Home is over capacity, but every other device is down: with no
    // candidate left after excluding home, the spill retries without
    // the exclusion and lands back home rather than on a dead device.
    StickyPlacement p(1);
    auto devices = homogeneous(3);
    const std::size_t home = p.place(devices, req("a", "hot"));
    ++devices[home].assignedTasks;

    for (auto &d : devices) {
        if (d.index != home)
            d.up = false;
    }
    EXPECT_EQ(p.place(devices, req("b", "hot")), home);
}

TEST(StickyPlacement, SingleDeviceNeverSpills)
{
    StickyPlacement p(1);
    auto devices = homogeneous(1);
    devices[0].assignedTasks = 5; // far over capacity, nowhere to go
    EXPECT_EQ(p.place(devices, req("a", "hot")), 0u);
    EXPECT_EQ(p.place(devices, req("b", "hot")), 0u);
}

TEST(StickyPlacement, DistinctKeysSpreadAcrossDevices)
{
    StickyPlacement p(2);
    auto devices = homogeneous(3);
    std::vector<int> perDevice(3, 0);
    for (int i = 0; i < 6; ++i) {
        const std::size_t d =
            p.place(devices, req("t", "key" + std::to_string(i)));
        ++perDevice[d];
        ++devices[d].assignedTasks;
    }
    for (int count : perDevice)
        EXPECT_EQ(count, 2);
}

TEST(StickyPlacement, EvictsKeyWhenLastLiveTaskDeparts)
{
    StickyPlacement p(2);
    auto devices = homogeneous(2);

    // Two tasks of tenant "hot" land on device 0.
    EXPECT_EQ(p.place(devices, req("a", "hot")), 0u);
    p.noteTaskPlaced(req("a", "hot"), 0);
    EXPECT_EQ(p.place(devices, req("b", "hot")), 0u);
    p.noteTaskPlaced(req("b", "hot"), 0);
    EXPECT_EQ(p.preferredOf("hot"), 0);

    // One departs: the mapping survives for the remaining task.
    p.noteTaskDeparted(req("a", "hot"), 0);
    EXPECT_EQ(p.preferredOf("hot"), 0);

    // Last one departs: the key is evicted, and a returning tenant
    // re-places against current load (device 1 is now emptier).
    p.noteTaskDeparted(req("b", "hot"), 0);
    EXPECT_EQ(p.preferredOf("hot"), -1);

    devices[0].busyTime = msec(500);
    devices[1].busyTime = msec(5);
    EXPECT_EQ(p.place(devices, req("c", "hot")), 1u);
}

TEST(StickyPlacement, ForcedPlacementKeepsLiveCountBalanced)
{
    // noteTaskPlaced without a preceding place() (serve steering or
    // migration) must create the mapping and count the task, so a
    // later departure still balances to eviction.
    StickyPlacement p(2);
    p.noteTaskPlaced(req("m", "mig"), 1);
    EXPECT_EQ(p.preferredOf("mig"), 1);
    p.noteTaskDeparted(req("m", "mig"), 1);
    EXPECT_EQ(p.preferredOf("mig"), -1);
    // Departures for unknown keys are ignored, not fatal.
    p.noteTaskDeparted(req("x", "ghost"), 0);
}

TEST(HeterogeneityAwarePlacement, FasterDeviceAbsorbsProportionalShare)
{
    HeterogeneityAwarePlacement p;
    auto devices = homogeneous(3);
    devices[0].speedFactor = 2.0;

    std::vector<int> perDevice(3, 0);
    for (int i = 0; i < 8; ++i) {
        const std::size_t d = p.place(devices, req("t"));
        ++perDevice[d];
        ++devices[d].assignedTasks;
        devices[d].assignedDemand += 1.0;
    }
    // Speeds 2:1:1 over 8 tasks -> 4:2:2.
    EXPECT_EQ(perDevice[0], 4);
    EXPECT_EQ(perDevice[1], 2);
    EXPECT_EQ(perDevice[2], 2);
}

TEST(HeterogeneityAwarePlacement, EqualSpeedsDegradeToBalance)
{
    HeterogeneityAwarePlacement p;
    auto devices = homogeneous(2);
    std::vector<int> perDevice(2, 0);
    for (int i = 0; i < 6; ++i) {
        const std::size_t d = p.place(devices, req("t"));
        ++perDevice[d];
        ++devices[d].assignedTasks;
        devices[d].assignedDemand += 1.0;
    }
    EXPECT_EQ(perDevice[0], 3);
    EXPECT_EQ(perDevice[1], 3);
}

TEST(HeterogeneityAwarePlacement, ResidentDemandCountsNotTaskCount)
{
    // A heavy resident task (demand 4) must keep attracting less new
    // work to its device than four light tasks would elsewhere.
    HeterogeneityAwarePlacement p;
    auto devices = homogeneous(2);

    PlacementRequest heavy = req("heavy");
    heavy.demand = 4.0;
    const std::size_t d0 = p.place(devices, heavy);
    EXPECT_EQ(d0, 0u);
    ++devices[d0].assignedTasks;
    devices[d0].assignedDemand += heavy.demand;

    // Demand-1 arrivals all avoid the heavy device until the other
    // side carries comparable demand.
    for (int i = 0; i < 3; ++i) {
        const std::size_t d = p.place(devices, req("light"));
        EXPECT_EQ(d, 1u);
        ++devices[d].assignedTasks;
        devices[d].assignedDemand += 1.0;
    }
    // Now 4 vs 3: the next arrival balances demand, not task count.
    EXPECT_EQ(p.place(devices, req("light")), 1u);
}

TEST(MakePlacementPolicy, BuildsEveryKind)
{
    FleetConfig cfg;
    const std::vector<std::pair<PlacementKind, std::type_index>> kinds = {
        {PlacementKind::RoundRobin, typeid(RoundRobinPlacement)},
        {PlacementKind::LeastLoaded, typeid(LeastLoadedPlacement)},
        {PlacementKind::Sticky, typeid(StickyPlacement)},
        {PlacementKind::HeterogeneityAware,
         typeid(HeterogeneityAwarePlacement)},
    };
    for (const auto &[k, type] : kinds) {
        SCOPED_TRACE(placementKindName(k));
        cfg.placement = k;
        auto p = makePlacementPolicy(cfg);
        ASSERT_NE(p, nullptr);
        EXPECT_EQ(std::type_index(typeid(*p)), type);
    }
}

} // namespace
} // namespace neon
