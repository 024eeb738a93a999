/**
 * @file
 * Unit tests for the GlobalVirtualClock's pure decision logic
 * (steering and migration planning over synthetic samples) and for
 * the live sampling path over a real fleet.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "serve/global_clock.hh"

namespace neon
{
namespace
{

DeviceClockSample
dev(std::size_t index, Tick norm_vtime, std::size_t live,
    double speed = 1.0)
{
    DeviceClockSample s;
    s.index = index;
    s.speedFactor = speed;
    s.hasVtime = true;
    s.vtime = static_cast<Tick>(static_cast<double>(norm_vtime) / speed);
    s.normVtime = norm_vtime;
    s.liveTasks = live;
    return s;
}

TEST(GlobalClock, SteeringPicksMostLaggingWithFreeSlot)
{
    const std::vector<DeviceClockSample> fleet = {
        dev(0, msec(50), 1),
        dev(1, msec(10), 1), // most lagging
        dev(2, msec(30), 1),
    };
    EXPECT_EQ(GlobalVirtualClock::pickLagging(fleet, 2), 1u);
}

TEST(GlobalClock, SteeringSkipsFullDevices)
{
    const std::vector<DeviceClockSample> fleet = {
        dev(0, msec(50), 1),
        dev(1, msec(10), 2), // most lagging but full
        dev(2, msec(30), 1),
    };
    EXPECT_EQ(GlobalVirtualClock::pickLagging(fleet, 2), 2u);
}

TEST(GlobalClock, SteeringTieBreaksByFewerTasksThenIndex)
{
    const std::vector<DeviceClockSample> idle = {
        dev(0, 0, 1),
        dev(1, 0, 0),
        dev(2, 0, 0),
    };
    EXPECT_EQ(GlobalVirtualClock::pickLagging(idle, 2), 1u);
}

TEST(GlobalClock, SteeringFallsBackToLeastCrowdedWhenAllFull)
{
    const std::vector<DeviceClockSample> full = {
        dev(0, msec(5), 3),
        dev(1, msec(9), 2),
    };
    EXPECT_EQ(GlobalVirtualClock::pickLagging(full, 2), 1u);
}

TEST(GlobalClock, MigrationMovesOffLaggingOntoAheadDevice)
{
    const std::vector<DeviceClockSample> fleet = {
        dev(0, msec(5), 2),  // over-committed: lags by 55 ms
        dev(1, msec(60), 1), // ahead, has a free slot
    };
    const MigrationPlan plan =
        GlobalVirtualClock::planMigration(fleet, msec(20), 2, 2);
    ASSERT_TRUE(plan.migrate);
    EXPECT_EQ(plan.from, 0u);
    EXPECT_EQ(plan.to, 1u);
    EXPECT_EQ(plan.lag, msec(55));
}

TEST(GlobalClock, MigrationRespectsThresholdAndMinTasks)
{
    const std::vector<DeviceClockSample> mild = {
        dev(0, msec(50), 2),
        dev(1, msec(60), 1),
    };
    // 10 ms spread is under the 20 ms threshold.
    EXPECT_FALSE(
        GlobalVirtualClock::planMigration(mild, msec(20), 2, 2).migrate);

    const std::vector<DeviceClockSample> lone = {
        dev(0, msec(5), 1), // lags badly, but only one task lives there
        dev(1, msec(60), 1),
    };
    EXPECT_FALSE(
        GlobalVirtualClock::planMigration(lone, msec(20), 2, 2).migrate);
    // Disabled threshold never migrates.
    EXPECT_FALSE(GlobalVirtualClock::planMigration(lone, 0, 1, 2).migrate);
}

TEST(GlobalClock, MigrationNeedsAFreeTargetSlot)
{
    const std::vector<DeviceClockSample> full_target = {
        dev(0, msec(5), 2),
        dev(1, msec(60), 2), // ahead but full
    };
    EXPECT_FALSE(GlobalVirtualClock::planMigration(full_target, msec(20),
                                                   2, 2)
                     .migrate);
}

TEST(GlobalClock, LiveSampleNormalizesBySpeedFactor)
{
    // Two DFQ devices, the first 2x fast. Saturate both and check the
    // sample: normVtime must equal vtime x speed.
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 2;
    cfg.fleet.placement = PlacementKind::RoundRobin;
    cfg.fleet.speedFactors = {2.0, 1.0};
    World world(cfg);
    for (int i = 0; i < 4; ++i)
        world.spawn(WorkloadSpec::throttle(usec(430)));
    world.start();
    world.runFor(sec(1));

    GlobalVirtualClock clock(world.fleet, 2);
    const auto samples = clock.sample();
    ASSERT_EQ(samples.size(), 2u);
    for (const DeviceClockSample &s : samples) {
        EXPECT_TRUE(s.hasVtime);
        EXPECT_GT(s.vtime, 0);
        EXPECT_EQ(s.normVtime,
                  static_cast<Tick>(static_cast<double>(s.vtime) *
                                    s.speedFactor));
    }
}

} // namespace
} // namespace neon
