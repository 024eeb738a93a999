/**
 * @file
 * Integration tests for the fleet layer: routing through a multi-device
 * World, heterogeneous speed factors end to end, throughput scaling,
 * and cross-device fairness under Disengaged Fair Queueing staying
 * within a bound of single-device fairness.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/experiment.hh"
#include "sched/disengaged_fq.hh"
#include "workload/adversary.hh"

namespace neon
{
namespace
{

ExperimentConfig
fleetConfig(std::size_t devices, SchedKind sched = SchedKind::DisengagedFq)
{
    ExperimentConfig cfg;
    cfg.sched = sched;
    cfg.fleet.devices = devices;
    cfg.fleet.placement = PlacementKind::LeastLoaded;
    cfg.measure = sec(2);
    return cfg;
}

TEST(MultiDeviceWorld, SpawnRoutesTasksAcrossDevices)
{
    ExperimentConfig cfg = fleetConfig(2);
    cfg.fleet.placement = PlacementKind::RoundRobin;
    World world(cfg);
    Task &a = world.spawn(WorkloadSpec::throttle(usec(100)));
    Task &b = world.spawn(WorkloadSpec::throttle(usec(100)));
    Task &c = world.spawn(WorkloadSpec::throttle(usec(100)));

    EXPECT_EQ(world.fleet.deviceOf(a), 0u);
    EXPECT_EQ(world.fleet.deviceOf(b), 1u);
    EXPECT_EQ(world.fleet.deviceOf(c), 0u);
}

TEST(MultiDeviceWorld, EachDeviceRunsItsOwnSchedulerInstance)
{
    World world(fleetConfig(4));
    ASSERT_EQ(world.fleet.deviceCount(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        ASSERT_NE(world.fleet.stack(i).sched, nullptr);
        EXPECT_NE(dynamic_cast<const DisengagedFairQueueing *>(
                      world.fleet.stack(i).sched.get()),
                  nullptr);
        for (std::size_t j = i + 1; j < 4; ++j) {
            EXPECT_NE(world.fleet.stack(i).sched.get(),
                      world.fleet.stack(j).sched.get());
        }
    }
}

TEST(MultiDeviceWorld, SpeedFactorScalesThroughputEndToEnd)
{
    // Two saturating tasks on two devices, one of which is 2x faster:
    // the task on the fast device completes ~2x the requests.
    ExperimentConfig cfg = fleetConfig(2);
    cfg.fleet.placement = PlacementKind::RoundRobin;
    cfg.fleet.speedFactors = {2.0, 1.0};
    ExperimentRunner runner(cfg);

    const RunResult r = runner.run({
        WorkloadSpec::throttle(usec(430)),
        WorkloadSpec::throttle(usec(430)),
    });

    ASSERT_EQ(r.tasks[0].device, 0u);
    ASSERT_EQ(r.tasks[1].device, 1u);
    const double ratio = static_cast<double>(r.tasks[0].requests) /
        static_cast<double>(r.tasks[1].requests);
    EXPECT_NEAR(ratio, 2.0, 0.3);
}

TEST(MultiDeviceWorld, ThroughputScalesWithDevices)
{
    // Four saturating tasks: two devices should complete close to 2x
    // the requests of one device hosting all four.
    const std::vector<WorkloadSpec> mix = {
        WorkloadSpec::throttle(usec(430)),
        WorkloadSpec::throttle(usec(430)),
        WorkloadSpec::throttle(usec(430)),
        WorkloadSpec::throttle(usec(430)),
    };

    ExperimentRunner one(fleetConfig(1));
    ExperimentRunner two(fleetConfig(2));
    const RunResult r1 = one.run(mix);
    const RunResult r2 = two.run(mix);

    EXPECT_GT(r2.throughputRps, 1.7 * r1.throughputRps);
}

TEST(FleetFairness, CrossDeviceWithinBoundOfSingleDevice)
{
    // The acceptance bound: sharding tasks over a fleet must not cost
    // (much) fairness relative to one DFQ device serving them all.
    const std::vector<WorkloadSpec> mix = {
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(1700)),
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(1700)),
    };

    ExperimentConfig single_cfg = fleetConfig(1);
    single_cfg.measure = sec(3);
    ExperimentConfig fleet_cfg = fleetConfig(2);
    fleet_cfg.measure = sec(3);

    const RunResult single = ExperimentRunner(single_cfg).run(mix);
    const RunResult sharded = ExperimentRunner(fleet_cfg).run(mix);

    EXPECT_GE(sharded.fairness.taskFairness,
              single.fairness.taskFairness - 0.1);
    // And sharding two like pairs over two devices balances them.
    EXPECT_GT(sharded.fairness.deviceBalance, 0.95);
}

TEST(FleetFairness, DfqVtimesAdvanceOnEveryDevice)
{
    ExperimentConfig cfg = fleetConfig(2);
    World world(cfg);
    for (int i = 0; i < 4; ++i)
        world.spawn(WorkloadSpec::throttle(usec(430)));
    world.start();
    world.runFor(sec(1));

    const std::vector<Tick> &vts = world.fleet.publishedVtimes();
    ASSERT_EQ(vts.size(), 2u);
    EXPECT_GT(vts[0], 0);
    EXPECT_GT(vts[1], 0);
    // Symmetric halves advance roughly in step.
    EXPECT_LT(fleetVtimeSpreadMs(world.fleet),
              0.5 * toMsec(std::max(vts[0], vts[1])));
}

TEST(FleetFairness, ProtectionStillKillsPerDevice)
{
    // A runaway task on one device is killed without disturbing the
    // tenant of the other device.
    ExperimentConfig cfg = fleetConfig(2);
    cfg.fleet.placement = PlacementKind::RoundRobin;
    cfg.dfq.killThreshold = msec(100);
    ExperimentRunner runner(cfg);

    const RunResult r = runner.run({
        WorkloadSpec::custom("malicious",
                             [](Task &t, std::uint64_t) {
                                 return infiniteKernelBody(t, 3,
                                                           usec(100));
                             }),
        WorkloadSpec::throttle(usec(100)),
    });

    EXPECT_EQ(r.kills, 1u);
    EXPECT_TRUE(r.tasks[0].killed);
    EXPECT_FALSE(r.tasks[1].killed);
    EXPECT_GT(r.tasks[1].rounds, 10000u);
}

TEST(MultiDeviceWorld, StickyPlacementKeepsTenantTogether)
{
    ExperimentConfig cfg = fleetConfig(3);
    cfg.fleet.placement = PlacementKind::Sticky;
    cfg.fleet.stickyCapacity = 2;
    World world(cfg);

    Task &a =
        world.spawn(WorkloadSpec::throttle(usec(100)).withAffinity("T"));
    Task &b =
        world.spawn(WorkloadSpec::throttle(usec(100)).withAffinity("T"));
    Task &c =
        world.spawn(WorkloadSpec::throttle(usec(100)).withAffinity("T"));

    EXPECT_EQ(world.fleet.deviceOf(a), world.fleet.deviceOf(b));
    EXPECT_NE(world.fleet.deviceOf(c), world.fleet.deviceOf(a));
}

} // namespace
} // namespace neon
