/**
 * @file
 * Allocation guards for the serving path.
 *
 * Once a serve world is warm, a request, a poll, a DFQ episode or a
 * global-clock tick must not touch the heap: every container they
 * use keeps its capacity. The first test pins that with long-lived
 * sessions (no placement or retirement in the window). The second
 * lets sessions churn, where each incarnation still allocates its
 * task, coroutine frame, channel, context and ring, and bounds the
 * allocations per session so that none is added per request.
 */

#include <gtest/gtest.h>

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

} // namespace
} // namespace neon
