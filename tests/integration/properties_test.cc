/**
 * @file
 * Cross-cutting invariants checked under every scheduler: time
 * conservation, completion ordering, request conservation, and
 * whole-simulation determinism.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "harness/experiment.hh"

namespace neon
{
namespace
{

class PropertySweep : public ::testing::TestWithParam<SchedKind>
{
  protected:
    ExperimentConfig
    config() const
    {
        ExperimentConfig cfg;
        cfg.sched = GetParam();
        cfg.measure = sec(1);
        return cfg;
    }

    std::vector<WorkloadSpec>
    mixedWorkload() const
    {
        return {
            WorkloadSpec::app("DCT"),
            WorkloadSpec::app("glxgears"),
            WorkloadSpec::throttle(usec(430)),
        };
    }
};

TEST_P(PropertySweep, DeviceTimeIsConserved)
{
    ExperimentConfig cfg = config();
    World world(cfg);
    for (const auto &s : mixedWorkload())
        world.spawn(s);
    world.start();
    world.runFor(cfg.warmup);
    world.beginMeasurement();
    world.runFor(cfg.measure);
    RunResult r = world.results();

    // Execute-engine busy + switch overhead cannot exceed elapsed time
    // (DMA runs on its own engine and is excluded here).
    Tick exec_busy = 0;
    for (const auto &t : r.tasks)
        exec_busy += t.gpuBusy;
    const Tick busy = r.deviceBusy.at(0);
    EXPECT_LE(busy, r.elapsed + msec(2));
    EXPECT_LE(busy - world.fleet.stack(0).meter.totalDmaBusy() +
                  r.switchOverhead,
              r.elapsed + msec(2));

    // Every per-task figure is accounted inside the total.
    EXPECT_LE(exec_busy, busy + msec(1));
}

TEST_P(PropertySweep, CompletionsFollowSubmissionOrderPerChannel)
{
    ExperimentConfig cfg = config();
    World world(cfg);
    for (const auto &s : mixedWorkload())
        world.spawn(s);

    std::map<int, std::uint64_t> last_completed;
    bool ordered = true;
    world.fleet.stack(0).device.traceComplete = [&](Channel &c,
                                                    const GpuRequest &r,
                                                    Tick, Tick) {
        if (r.ref <= last_completed[c.id()])
            ordered = false;
        last_completed[c.id()] = r.ref;
    };

    world.start();
    world.runFor(sec(1));
    EXPECT_TRUE(ordered);
    EXPECT_FALSE(last_completed.empty());
}

TEST_P(PropertySweep, ReferenceCountersNeverRegress)
{
    ExperimentConfig cfg = config();
    World world(cfg);
    for (const auto &s : mixedWorkload())
        world.spawn(s);
    world.start();

    std::map<int, std::uint64_t> seen;
    bool monotone = true;
    for (int step = 0; step < 200; ++step) {
        world.runFor(msec(5));
        for (Channel *c : world.fleet.stack(0).kernel.activeChannels()) {
            const std::uint64_t cur = c->completedRef();
            if (cur < seen[c->id()])
                monotone = false;
            seen[c->id()] = cur;
        }
    }
    EXPECT_TRUE(monotone);
}

TEST_P(PropertySweep, EveryAwaitedSubmissionEventuallyCompletes)
{
    ExperimentConfig cfg = config();
    World world(cfg);
    for (const auto &s : mixedWorkload())
        world.spawn(s);
    world.start();
    world.runFor(sec(1));

    // Quiesce: freeze workloads by protecting nothing further — simply
    // give the device and scheduler time to drain everything in
    // flight; then all counters must meet their submitted refs within
    // a few engagement cycles.
    world.runFor(msec(200));
    int lagging = 0;
    for (Channel *c : world.fleet.stack(0).kernel.activeChannels()) {
        const std::uint64_t submitted = c->lastSubmittedRef();
        const std::uint64_t done = c->completedRef();
        // At most one round's worth of requests may be in flight.
        if (submitted > done + 64)
            ++lagging;
    }
    EXPECT_EQ(lagging, 0);
}

TEST_P(PropertySweep, WholeSimulationIsDeterministic)
{
    ExperimentRunner runner(config());
    const RunResult a = runner.run(mixedWorkload());
    const RunResult b = runner.run(mixedWorkload());

    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
        EXPECT_EQ(a.tasks[i].rounds, b.tasks[i].rounds);
        EXPECT_DOUBLE_EQ(a.tasks[i].meanRoundUs, b.tasks[i].meanRoundUs);
        EXPECT_EQ(a.tasks[i].gpuBusy, b.tasks[i].gpuBusy);
    }
    EXPECT_EQ(a.deviceBusy, b.deviceBusy);
    EXPECT_EQ(a.switchOverhead, b.switchOverhead);
}

TEST_P(PropertySweep, SeedChangesResultsButNotInvariants)
{
    ExperimentConfig cfg = config();
    ExperimentRunner r1(cfg);
    cfg.seed = 777;
    ExperimentRunner r2(cfg);

    const RunResult a = r1.run(mixedWorkload());
    const RunResult b = r2.run(mixedWorkload());

    // Different seeds shuffle jitter; totals stay in the same regime.
    EXPECT_NE(a.deviceBusy, b.deviceBusy);
    EXPECT_NEAR(toSec(a.deviceBusy.at(0)), toSec(b.deviceBusy.at(0)), 0.1);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, PropertySweep,
    ::testing::Values(SchedKind::Direct, SchedKind::Timeslice,
                      SchedKind::DisengagedTimeslice,
                      SchedKind::DisengagedFq, SchedKind::EngagedFq),
    [](const ::testing::TestParamInfo<SchedKind> &info) {
        std::string n = schedKindName(info.param);
        for (auto &ch : n)
            if (ch == '-')
                ch = '_';
        return n;
    });

} // namespace
} // namespace neon
