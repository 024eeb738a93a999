/**
 * @file
 * Differential test of the fleet's published vtime cells.
 *
 * The global clock reads each device's system virtual time from a
 * dense fleet-owned array that the policy writes at the one site
 * where that time changes. Stepped one clock period at a time through
 * a churning serve run, every cell must equal its policy's own tap.
 * The sharded cases (named for the TSan job's 'Shard' filter) also
 * check the handoff: shard threads write the cells, the coordinator
 * reads them after the window barrier.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "harness/serve_runner.hh"

namespace neon
{
namespace
{

ExperimentConfig
cellConfig(SchedKind sched, unsigned shards)
{
    ExperimentConfig cfg;
    cfg.sched = sched;
    cfg.fleet.devices = 6;
    cfg.fleet.speedFactors = {1.4, 1.0, 0.6, 1.0, 1.2, 0.8};
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(15);
    cfg.serve.migrationMinTasks = 1;
    cfg.shards.count = shards;
    cfg.shards.threads = shards;
    cfg.seed = 3;
    return cfg;
}

std::vector<ServeWorkloadSpec>
cellSpecs()
{
    WorkloadSpec heavy = WorkloadSpec::throttle(usec(400));
    heavy.label = "heavy";
    WorkloadSpec light = WorkloadSpec::throttle(usec(150), 0.3);
    light.label = "light";
    return {
        {heavy, ArrivalSpec::poisson(40.0), LifetimeSpec::fixed(msec(120))},
        {light, ArrivalSpec::poisson(60.0),
         LifetimeSpec::exponential(msec(80))},
    };
}

/** Step @p cfg's world clock period by clock period, comparing cells. */
void
expectCellsTrackTaps(const ExperimentConfig &cfg)
{
    ServeWorld world(cfg, cellSpecs());
    world.start();
    const std::vector<Tick> &cells = world.fleet.publishedVtimes();
    ASSERT_EQ(cells.size(), world.fleet.deviceCount());

    std::size_t advanced = 0;
    for (int step = 0; step < 80; ++step) {
        world.runFor(cfg.serve.clockPeriod);
        for (std::size_t d = 0; d < cells.size(); ++d) {
            const VirtualTimeTap *tap = world.fleet.stack(d).vtimeTap;
            ASSERT_NE(tap, nullptr);
            ASSERT_EQ(cells[d], tap->tapSystemVtime())
                << "device " << d << " after step " << step;
        }
    }
    for (const Tick v : cells)
        advanced += v > 0 ? 1 : 0;
    EXPECT_GT(advanced, 0u) << "no device's virtual time ever moved";
    EXPECT_GT(world.engine.departures(), 20u);
}

TEST(PublishedVtime, SerialDfqCellsTrackTaps)
{
    expectCellsTrackTaps(cellConfig(SchedKind::DisengagedFq, 0));
}

TEST(PublishedVtime, SerialEngagedFqCellsTrackTaps)
{
    expectCellsTrackTaps(cellConfig(SchedKind::EngagedFq, 0));
}

TEST(PublishedVtime, ShardedDfqCellsTrackTaps)
{
    expectCellsTrackTaps(cellConfig(SchedKind::DisengagedFq, 3));
}

TEST(PublishedVtime, ShardedEngagedFqCellsTrackTaps)
{
    expectCellsTrackTaps(cellConfig(SchedKind::EngagedFq, 3));
}

TEST(PublishedVtime, PolicyWithoutTapLeavesCellsUnset)
{
    // The clock then reads every device as maximally lagging.
    ExperimentConfig cfg = cellConfig(SchedKind::Direct, 0);
    ServeWorld world(cfg, cellSpecs());
    world.start();
    world.runFor(msec(200));
    for (const Tick v : world.fleet.publishedVtimes())
        EXPECT_EQ(v, FleetManager::noVtime);
    GlobalVirtualClock clock(world.fleet, cfg.serve.slotsPerDevice);
    for (const DeviceClockSample &s : clock.sample()) {
        EXPECT_FALSE(s.hasVtime);
        EXPECT_EQ(s.normVtime, 0);
    }
}

} // namespace
} // namespace neon
