/**
 * @file
 * Placement policies on a heterogeneous fleet.
 *
 * Four devices, one of them 2x faster, serving eight tenants. Shows
 * where each policy places the tenants and what that does to per-task
 * service and device balance:
 *
 *  - round-robin ignores speed and load;
 *  - least-loaded balances busy time but not capability;
 *  - sticky keeps each tenant's tasks together (affinity), spilling
 *    only over capacity;
 *  - heterogeneity-aware gives the fast device a double share.
 */

#include <iostream>

#include "neon/neon.hh"

using namespace neon;

int
main()
{
    const std::vector<PlacementKind> policies = {
        PlacementKind::RoundRobin,
        PlacementKind::LeastLoaded,
        PlacementKind::Sticky,
        PlacementKind::HeterogeneityAware,
    };

    for (PlacementKind placement : policies) {
        ExperimentConfig cfg;
        cfg.sched = SchedKind::DisengagedFq;
        cfg.fleet.devices = 4;
        cfg.fleet.speedFactors = {2.0, 1.0, 1.0, 1.0};
        cfg.fleet.placement = placement;
        cfg.fleet.stickyCapacity = 2;
        cfg.measure = sec(2);

        // Four tenants, two tasks each, tagged with tenant affinity.
        std::vector<WorkloadSpec> mix;
        for (int tenant = 0; tenant < 4; ++tenant) {
            const std::string key = "tenant" + std::to_string(tenant);
            mix.push_back(WorkloadSpec::app("DCT").withAffinity(key));
            mix.push_back(
                WorkloadSpec::throttle(usec(430)).withAffinity(key));
        }

        const RunResult r = ExperimentRunner(cfg).run(mix);

        std::cout << "=== " << placementKindName(placement) << " ===\n";
        Table table({"task", "device", "requests", "busy(ms)"});
        for (const TaskResult &t : r.tasks) {
            table.addRow({
                t.label,
                Table::num(static_cast<double>(t.device), 0),
                Table::num(static_cast<double>(t.requests), 0),
                Table::num(toMsec(t.gpuBusy), 1),
            });
        }
        table.print();
        std::cout << "fleet: " << Table::num(r.throughputRps, 0)
                  << " req/s, task-fairness "
                  << Table::num(r.fairness.taskFairness, 3)
                  << ", device-balance "
                  << Table::num(r.fairness.deviceBalance, 3) << "\n\n";
    }
    return 0;
}
