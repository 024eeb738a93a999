/**
 * @file
 * O(live) guard: per-task state below the serve layer is bounded by
 * the live incarnations, however many sessions have come and gone.
 *
 * Runs ~100k short sessions through a small Disengaged Fair Queueing
 * fleet — departures, QoS preemptions and a device failure's evictions
 * all retire incarnations — and after every lifecycle transition
 * checks that no kernel task list, meter or scheduler holds more than
 * the device's live incarnations plus its killed tasks (killed tasks
 * keep their Task).
 * It has its own tight ctest TIMEOUT (CMakeLists.txt): state that
 * grows with history (a task list that keeps retired tasks, quadratic
 * teardown, history-keyed meter maps) turns its ~100k sessions
 * quadratic.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "harness/serve_runner.hh"
#include "sched/disengaged_fq.hh"

namespace neon
{
namespace
{

/**
 * One request, then done: the session still holds its channel until
 * it departs, and one whose lifetime ends first departs mid-request
 * (the aborted occupancy is charged, then folded).
 */
Co
oneRequest(Task &t, Tick size)
{
    Channel *c = co_await t.openChannel(RequestClass::Compute);
    if (!c)
        co_return;
    const std::uint64_t ref =
        co_await t.submit(*c, RequestClass::Compute, size);
    co_await t.waitRef(*c, ref);
}

ServeWorkloadSpec
shortSessions(const std::string &label, const std::string &tenant,
              double rate, Tick size, LifetimeSpec life)
{
    WorkloadSpec w = WorkloadSpec::custom(
        label,
        [size](Task &t, std::uint64_t) { return oneRequest(t, size); });
    return {std::move(w), ArrivalSpec::poisson(rate), life, tenant};
}

TEST(LiveStateGuard, KernelsMetersAndDfqHoldLiveIncarnationsOnly)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 4;
    cfg.fleet.placement = PlacementKind::RoundRobin;
    cfg.serve.slotsPerDevice = 8;
    cfg.serve.admission = AdmissionKind::FairShare;
    cfg.serve.qos.enabled = true;
    cfg.serve.qos.preemption = true;
    cfg.fault.plan.script = {
        {msec(1500), FaultKind::DeviceDeath, 1, msec(100)},
    };
    const Tick horizon = msec(3300);

    ServeWorkloadSpec inter =
        shortSessions("interactive", "frontend", 800.0, usec(50),
                      LifetimeSpec::exponential(msec(1)));
    inter.qos = QosClass::Interactive;
    const std::vector<ServeWorkloadSpec> specs = {
        inter,
        shortSessions("batch-a", "tenant-a", 15000.0, usec(200),
                      LifetimeSpec::fixed(msec(1))),
        shortSessions("batch-b", "tenant-b", 15000.0, usec(200),
                      LifetimeSpec::fixed(msec(1))),
    };

    ServeWorld world(cfg, specs);
    FleetManager &fleet = world.fleet;
    std::size_t worstExcess = 0;
    std::uint64_t transitions = 0;
    world.engine.addSessionListener([&](const SessionEvent &) {
        ++transitions;
        const std::vector<DeviceLoadView> loads = fleet.loadViews();
        for (std::size_t i = 0; i < fleet.deviceCount(); ++i) {
            const DeviceStack &d = fleet.stack(i);
            const std::size_t bound =
                loads[i].assignedTasks + d.kernel.killCount();
            const auto &dfq =
                dynamic_cast<const DisengagedFairQueueing &>(*d.sched);
            for (const std::size_t held :
                 {d.kernel.tasks().size(), d.meter.liveSlots(),
                  dfq.trackedTasks()}) {
                if (held > bound + worstExcess)
                    worstExcess = held - bound;
            }
        }
    });
    world.start();
    world.runFor(horizon);
    const ServeRunResult r = world.results();

    EXPECT_EQ(worstExcess, 0u)
        << "a kernel, meter or scheduler held state for a retired "
           "incarnation";
    EXPECT_GE(r.departures, 90000u);
    EXPECT_GT(r.preemptions, 0u);
    EXPECT_GT(r.evictions, 0u);
    EXPECT_GT(transitions, 3 * r.departures);
    EXPECT_GT(r.audit.checks, 0u);
    EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
}

} // namespace
} // namespace neon
