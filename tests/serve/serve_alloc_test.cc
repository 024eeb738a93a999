/**
 * @file
 * Allocation guards for the serving path.
 *
 * Once a serve world is warm, a request, a poll, a DFQ episode, a
 * global-clock tick or a watchdog scan must not touch the heap: every
 * container they use keeps its capacity. The first two tests pin that
 * with long-lived sessions (no placement or retirement in the window),
 * the second with the watchdog on. The third lets sessions churn,
 * where each incarnation still allocates its task, coroutine frame,
 * channel, context and ring, and bounds the allocations per session so
 * that none is added per request. The last bounds what building and
 * starting a world allocates per device, so that no per-device closure
 * or name creeps back into setup.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "harness/serve_runner.hh"
#include "support/alloc_counter.hh"

namespace neon
{
namespace
{

/** Four DFQ devices, two slots each, steered by the global clock. */
ExperimentConfig
guardConfig()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 4;
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.seed = 7;
    return cfg;
}

/**
 * The churn test's recorded cost: 2,359 allocations over 98 sessions
 * (24.1 each) when it was written, down from 9,461 before the request
 * path stopped allocating. Lower it when a change saves allocations;
 * one more per session fails the test.
 */
constexpr double kAllocationsPerSessionBound = 25.0;

/**
 * The setup test's bound on allocations per added device. When it was
 * written a DFQ device cost 2.0 (its stack and its policy); the
 * auditor's per-device closures and names had made it 12.0.
 */
constexpr double kSetupAllocationsPerDeviceBound = 3.0;

WorkloadSpec
throttleWork()
{
    WorkloadSpec w = WorkloadSpec::throttle(usec(430));
    w.label = "guard";
    return w;
}

TEST(ServeAllocation, SteadyStateIsAllocationFree)
{
    // Eight sessions that never leave fill all eight slots, so the
    // clock finds no migration target either.
    std::vector<Tick> arrivals;
    for (int i = 1; i <= 8; ++i)
        arrivals.push_back(msec(i));
    ServeWorld world(guardConfig(),
                     {{throttleWork(), ArrivalSpec::trace(arrivals),
                       LifetimeSpec::forever()}});
    world.start();
    world.runFor(sec(2));
    ASSERT_EQ(world.engine.liveSessions(), 8u);

    const std::uint64_t requests_before = world.fleet.totalRequests();
    const std::uint64_t before = test::allocationCount();
    world.runFor(sec(4));
    const std::uint64_t allocations = test::allocationCount() - before;

    // ~35.6k requests, 16k polls, the DFQ episodes and 400 clock ticks.
    EXPECT_GT(world.fleet.totalRequests() - requests_before, 30000u);
    EXPECT_EQ(allocations, 0u)
        << "a warm serve world allocated " << allocations
        << " times in 4 simulated seconds";
}

TEST(ServeAllocation, SteadyStateWithWatchdogIsAllocationFree)
{
    // The same warm world with every device's watchdog scanning its
    // busy channels each checkPeriod: a scan reuses its stamp tables.
    ExperimentConfig cfg = guardConfig();
    cfg.fault.watchdog.enabled = true;
    std::vector<Tick> arrivals;
    for (int i = 1; i <= 8; ++i)
        arrivals.push_back(msec(i));
    ServeWorld world(cfg, {{throttleWork(), ArrivalSpec::trace(arrivals),
                            LifetimeSpec::forever()}});
    world.start();
    world.runFor(sec(2));
    ASSERT_EQ(world.engine.liveSessions(), 8u);

    const std::uint64_t before = test::allocationCount();
    world.runFor(sec(4));
    const std::uint64_t allocations = test::allocationCount() - before;

    // 1,200 scans per device by now, 800 in the window; no kills.
    EXPECT_EQ(world.fleet.watchdog(0)->scans(), 1200u);
    EXPECT_EQ(world.fleet.totalKills(), 0u);
    EXPECT_EQ(allocations, 0u)
        << "a warm serve world with the watchdog on allocated "
        << allocations << " times in 4 simulated seconds";
}

TEST(ServeAllocation, ChurnStaysWithinPerSessionBound)
{
    // ~100 sessions of 200 ms in the measured window. Each incarnation
    // allocates a bounded set of objects (its Task, coroutine frame,
    // channel, context, ring and session record, and the tables that
    // index them); a rise past the bound means something now
    // allocates per request or per poll.
    ServeWorld world(guardConfig(),
                     {{throttleWork(), ArrivalSpec::poisson(25.0),
                       LifetimeSpec::fixed(msec(200))}});
    world.start();
    world.runFor(sec(2));

    const std::uint64_t arrivals_before = world.engine.arrivalsSeen();
    const std::uint64_t before = test::allocationCount();
    world.runFor(sec(4));
    const std::uint64_t allocations = test::allocationCount() - before;
    const std::uint64_t sessions =
        world.engine.arrivalsSeen() - arrivals_before;

    ASSERT_GT(sessions, 50u);
    const double per_session =
        static_cast<double>(allocations) / static_cast<double>(sessions);
    EXPECT_LE(per_session, kAllocationsPerSessionBound)
        << allocations << " allocations over " << sessions << " sessions";
}

/** Allocations made building and starting a @p devices DFQ world. */
std::uint64_t
setupAllocations(std::size_t devices)
{
    ExperimentConfig cfg = guardConfig();
    cfg.fleet.devices = devices;
    const std::vector<ServeWorkloadSpec> specs = {
        {throttleWork(), ArrivalSpec::poisson(400.0),
         LifetimeSpec::fixed(msec(200))},
    };
    const std::uint64_t before = test::allocationCount();
    ServeWorld world(cfg, specs);
    EXPECT_NE(world.auditor, nullptr);
    world.start();
    return test::allocationCount() - before;
}

TEST(ServeAllocation, SetupAllocatesFewObjectsPerDevice)
{
    setupAllocations(16); // warm: one-time allocations land here
    const std::uint64_t small = setupAllocations(16);
    const std::uint64_t large = setupAllocations(64);
    ASSERT_GT(large, small);
    const double per_device = static_cast<double>(large - small) / 48.0;
    EXPECT_LE(per_device, kSetupAllocationsPerDeviceBound)
        << small << " allocations for 16 devices, " << large
        << " for 64";
}

} // namespace
} // namespace neon
