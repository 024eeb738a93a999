/**
 * @file
 * Tests for the engaged Timeslice scheduler with overuse control.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "sched/timeslice.hh"
#include "workload/adversary.hh"

namespace neon
{
namespace
{

ExperimentConfig
tsConfig()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::Timeslice;
    cfg.measure = sec(2);
    return cfg;
}

TEST(Timeslice, EverySubmissionIsIntercepted)
{
    ExperimentConfig cfg = tsConfig();
    World world(cfg);
    world.spawn(WorkloadSpec::throttle(usec(100)));
    world.start();
    world.runFor(msec(100));

    ASSERT_EQ(world.fleet.stack(0).kernel.activeChannels().size(), 1u);
    Channel *c = world.fleet.stack(0).kernel.activeChannels()[0];
    EXPECT_FALSE(c->doorbell().present());
    EXPECT_GT(c->doorbell().faults(), 100u);
    EXPECT_EQ(c->doorbell().directWrites(), 0u);
}

TEST(Timeslice, SoloTaskHoldsTheToken)
{
    ExperimentConfig cfg = tsConfig();
    World world(cfg);
    Task &t = world.spawn(WorkloadSpec::throttle(usec(100)));
    world.start();
    world.runFor(msec(100));

    auto *ts = dynamic_cast<TimesliceScheduler *>(
        world.fleet.stack(0).sched.get());
    ASSERT_NE(ts, nullptr);
    EXPECT_EQ(ts->holder(), &t);
}

TEST(Timeslice, PerRequestOverheadSlowsSmallRequests)
{
    ExperimentConfig cfg = tsConfig();
    ExperimentRunner runner(cfg);

    const WorkloadSpec w = WorkloadSpec::throttle(usec(19));
    const double solo_direct = runner.soloRoundUs(w);
    const RunResult r = runner.run({w});
    const double slowdown = r.tasks[0].meanRoundUs / solo_direct;

    // Fault cost (~9us) on a 19us request: a significant hit.
    EXPECT_GT(slowdown, 1.3);
    EXPECT_LT(slowdown, 1.8);
}

TEST(Timeslice, FairSharingBetweenSaturatingTasks)
{
    ExperimentConfig cfg = tsConfig();
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(430)),
    });

    EXPECT_NEAR(sd[0], 2.0, 0.5);
    EXPECT_NEAR(sd[1], 2.0, 0.5);
}

TEST(Timeslice, NotWorkConservingAcrossIdleSlices)
{
    // A sleeper wastes most of its slice; the co-runner cannot use it.
    ExperimentConfig cfg = tsConfig();
    ExperimentRunner runner(cfg);

    const auto sd = runner.slowdowns({
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(1700), 0.8),
    });

    // DCT is confined to its own slices: full 2x despite the idle GPU
    // in the sleeper's slices.
    EXPECT_GT(sd[0], 1.7);
}

TEST(Timeslice, OveruseIsChargedAndTurnsAreSkipped)
{
    // The paper's adversary: requests of 0.9 timeslice, overrunning
    // every slice edge. Overuse control must keep sharing fair.
    ExperimentConfig cfg = tsConfig();
    cfg.timeslice.slice = msec(30);
    cfg.measure = sec(3);

    World world(cfg);
    world.spawn(WorkloadSpec::throttle(msec(27)));
    world.spawn(WorkloadSpec::throttle(usec(500)));
    world.start();
    world.runFor(cfg.warmup);
    world.beginMeasurement();
    world.runFor(cfg.measure);
    RunResult r = world.results();

    auto *ts = dynamic_cast<TimesliceScheduler *>(
        world.fleet.stack(0).sched.get());
    ASSERT_NE(ts, nullptr);
    EXPECT_GT(ts->skips(), 5u);

    // Device time split roughly evenly despite the overruns.
    const double share0 = toSec(r.tasks[0].gpuBusy);
    const double share1 = toSec(r.tasks[1].gpuBusy);
    EXPECT_NEAR(share0 / (share0 + share1), 0.5, 0.12);
}

TEST(Timeslice, InfiniteKernelGetsKilledAndVictimRecovers)
{
    ExperimentConfig cfg = tsConfig();
    cfg.timeslice.killThreshold = msec(100);
    cfg.measure = sec(2);
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
    // The victim ends up with most of the measurement window.
    EXPECT_GT(r.tasks[1].rounds, 10000u);
}

TEST(Timeslice, TokenRotatesAmongThreeTasks)
{
    ExperimentConfig cfg = tsConfig();
    cfg.measure = sec(3);
    ExperimentRunner runner(cfg);

    const RunResult r = runner.run({
        WorkloadSpec::throttle(usec(200)),
        WorkloadSpec::throttle(usec(200)),
        WorkloadSpec::throttle(usec(200)),
    });

    // Everyone progresses at roughly a third of solo speed.
    for (const auto &t : r.tasks) {
        const double sd = t.meanRoundUs / 200.5;
        EXPECT_NEAR(sd, 3.0, 0.5) << t.label;
    }
}

} // namespace
} // namespace neon
