/**
 * @file
 * Tests for the Throttle microbenchmark.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "harness/experiment.hh"

namespace neon
{
namespace
{

RunResult
runThrottle(Tick size, double sleep_ratio, Tick measure = sec(1))
{
    ExperimentConfig cfg;
    cfg.measure = measure;
    ExperimentRunner runner(cfg);
    return runner.run({WorkloadSpec::throttle(size, sleep_ratio)});
}

TEST(Throttle, RoundEqualsRequestPlusOverhead)
{
    const RunResult r = runThrottle(usec(430), 0.0);
    EXPECT_NEAR(r.tasks[0].meanRoundUs, 430.3, 2.0);
}

TEST(Throttle, SweepOfSizesTracksRequestSize)
{
    for (double us : {19.0, 106.0, 430.0, 1700.0}) {
        const RunResult r = runThrottle(usec(us), 0.0);
        EXPECT_NEAR(r.tasks[0].meanRoundUs, us, us * 0.05 + 1.0);
    }
}

TEST(Throttle, SleepRatioProducesOffTime)
{
    const RunResult r = runThrottle(usec(1700), 0.8, sec(2));
    // 20% duty: device busy should be ~20% of elapsed.
    const double duty = toSec(r.deviceBusy.at(0)) / toSec(r.elapsed);
    EXPECT_NEAR(duty, 0.2, 0.02);
    // Round = request + 4x request of sleep.
    EXPECT_NEAR(r.tasks[0].meanRoundUs, 5 * 1700.0, 200.0);
}

TEST(Throttle, SaturatingKeepsDeviceBusy)
{
    const RunResult r = runThrottle(usec(430), 0.0);
    EXPECT_GT(toSec(r.deviceBusy.at(0)) / toSec(r.elapsed), 0.97);
}

TEST(Throttle, DeterministicAcrossRuns)
{
    const RunResult a = runThrottle(usec(106), 0.3);
    const RunResult b = runThrottle(usec(106), 0.3);
    EXPECT_EQ(a.tasks[0].rounds, b.tasks[0].rounds);
    EXPECT_DOUBLE_EQ(a.tasks[0].meanRoundUs, b.tasks[0].meanRoundUs);
    EXPECT_EQ(a.deviceBusy, b.deviceBusy);
}

TEST(Throttle, JitterVariesRequestSizes)
{
    ExperimentConfig cfg;
    cfg.measure = sec(1);
    cfg.collectTraces = true;

    World world(cfg);
    Task &t = world.spawn(WorkloadSpec::throttle(usec(100)));

    // Keep every awaited service time the request trace averages, to
    // take their sample standard deviation.
    GpuDevice &device = world.fleet.stack(0).device;
    std::vector<double> serviceUs;
    device.traceComplete = [&serviceUs, traced = device.traceComplete](
                               Channel &c, const GpuRequest &r, Tick start,
                               Tick end) {
        traced(c, r, start, end);
        if (r.awaited)
            serviceUs.push_back(toUsec(end - start));
    };

    world.start();
    world.runFor(cfg.warmup);
    world.beginMeasurement(); // resets the request trace
    serviceUs.clear();
    world.runFor(cfg.measure);

    ASSERT_GT(serviceUs.size(), 1u);
    double mean = 0.0;
    for (double us : serviceUs)
        mean += us;
    mean /= static_cast<double>(serviceUs.size());
    double ss = 0.0;
    for (double us : serviceUs)
        ss += (us - mean) * (us - mean);
    const double stddev =
        std::sqrt(ss / static_cast<double>(serviceUs.size() - 1));
    EXPECT_GT(stddev, 0.5);
    EXPECT_LT(stddev, 5.0);

    const auto &pt = world.traceOf(0).of(t.pid());
    EXPECT_EQ(pt.serviceAccumUs.count(), serviceUs.size());
    EXPECT_NEAR(pt.serviceAccumUs.mean(), 100.0, 1.0);
}

} // namespace
} // namespace neon
