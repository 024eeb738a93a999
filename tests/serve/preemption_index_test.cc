/**
 * @file
 * Differential test of the preemption victim index.
 *
 * ServeEngine picks a QoS preemption's victim from an ordered index of
 * the placed incarnations. The linear scan it replaced stays here as
 * the oracle: across seeded overload runs with interactive arrivals
 * preempting batch work, protection kills (a killed task stays placed
 * until its kill is finalized) and a device death with failover, the
 * index and the scan must name the same victim at every step.
 */

#include <gtest/gtest.h>

#include <cstdint>

#include "fault/fault_config.hh"
#include "harness/serve_runner.hh"
#include "workload/adversary.hh"

namespace neon
{
namespace
{

/** The scan tryPreempt ran before the index (the reference). */
const SessionRecord *
linearVictim(const ServeEngine &engine, int arriving_rank)
{
    const SessionRecord *victim = nullptr;
    int victim_rank = 0;
    for (const std::uint64_t sid : engine.placedSessions()) {
        const SessionRecord &s = engine.session(sid);
        if (s.done || !s.task->alive())
            continue;
        const int rank =
            qosPriorityOf(engine.workloadClasses()[s.cls].qos);
        if (rank <= arriving_rank)
            continue;
        if (!victim || rank > victim_rank ||
            (rank == victim_rank &&
             (s.admitted > victim->admitted ||
              (s.admitted == victim->admitted && s.id > victim->id)))) {
            victim = &s;
            victim_rank = rank;
        }
    }
    return victim;
}

ExperimentConfig
preemptionConfig(std::uint64_t seed)
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.dfq.killThreshold = msec(40);
    cfg.fleet.devices = 4;
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.qos.enabled = true;
    cfg.serve.qos.preemption = true;
    cfg.serve.qos.preemptionBackoff = msec(5);
    cfg.seed = seed;

    FaultEvent death;
    death.at = msec(400);
    death.kind = FaultKind::DeviceDeath;
    death.device = 1;
    death.duration = msec(200);
    cfg.fault.plan.script = {death};
    return cfg;
}

std::vector<ServeWorkloadSpec>
preemptionSpecs()
{
    WorkloadSpec batch = WorkloadSpec::throttle(usec(400));
    batch.label = "batch";
    ServeWorkloadSpec b{batch, ArrivalSpec::poisson(120.0, msec(1000)),
                        LifetimeSpec::fixed(msec(120))};

    // Runaway batch sessions: DFQ kills each one after killThreshold.
    WorkloadSpec runaway = WorkloadSpec::custom(
        "runaway", [](Task &t, std::uint64_t) {
            return infiniteKernelBody(t, 3, usec(100));
        });
    ServeWorkloadSpec r{runaway, ArrivalSpec::poisson(15.0, msec(1000)),
                        LifetimeSpec::forever()};

    WorkloadSpec inter = WorkloadSpec::throttle(usec(200));
    inter.label = "inter";
    ServeWorkloadSpec i{inter, ArrivalSpec::poisson(80.0, msec(1000)),
                        LifetimeSpec::exponential(msec(30))};
    i.qos = QosClass::Interactive;
    return {b, r, i};
}

TEST(PreemptionDifferential, IndexMatchesLinearScan)
{
    const int interactive = qosPriorityOf(QosClass::Interactive);
    const int batch = qosPriorityOf(QosClass::Batch);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        ServeWorld world(preemptionConfig(seed), preemptionSpecs());
        world.start();
        std::uint64_t compared = 0;
        for (int step = 0; step < 1200; ++step) {
            world.runFor(msec(1));
            for (const int rank : {interactive, batch}) {
                const SessionRecord *want =
                    linearVictim(world.engine, rank);
                ASSERT_EQ(world.engine.preemptionVictim(rank), want)
                    << "seed " << seed << " step " << step << " rank "
                    << rank;
                compared += want ? 1 : 0;
            }
        }
        EXPECT_GT(compared, 500u) << "seed " << seed;
        EXPECT_GT(world.engine.preemptionCount(), 5u) << "seed " << seed;
        EXPECT_GT(world.engine.killedSessions(), 0u) << "seed " << seed;
        EXPECT_GT(world.engine.evictedSessions(), 0u) << "seed " << seed;
    }
}

} // namespace
} // namespace neon
