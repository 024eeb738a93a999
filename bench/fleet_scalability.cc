/**
 * @file
 * Fleet scalability sweep: 1/2/4/8 devices under per-device Disengaged
 * Fair Queueing, two saturating tasks per device. Reports aggregate
 * throughput, scaling versus one device, and the cross-device fairness
 * indices (per-task service and per-device balance), for each placement
 * policy.
 */

#include "common.hh"

using namespace neonbench;

namespace
{

std::vector<WorkloadSpec>
mixFor(std::size_t devices)
{
    // Two saturating tenants per device: one app-profile, one
    // Throttle. Spawned class-by-class so every placement policy deals
    // each device the same mix and the scaling column compares like
    // with like.
    std::vector<WorkloadSpec> mix;
    for (std::size_t i = 0; i < devices; ++i)
        mix.push_back(WorkloadSpec::app("DCT"));
    for (std::size_t i = 0; i < devices; ++i)
        mix.push_back(WorkloadSpec::throttle(usec(1700)));
    return mix;
}

} // namespace

int
main()
{
    banner("Fleet", "device-count sweep under disengaged-fq");

    const std::vector<std::size_t> deviceCounts = {1, 2, 4, 8};
    const std::vector<PlacementKind> policies = {
        PlacementKind::RoundRobin,
        PlacementKind::LeastLoaded,
        PlacementKind::Sticky,
        PlacementKind::HeterogeneityAware,
    };

    for (PlacementKind placement : policies) {
        std::cout << "placement: " << placementKindName(placement)
                  << "\n";
        Table table({"devices", "tasks", "req/s", "scaling",
                     "task-fairness", "device-balance",
                     "vtime-spread(ms)"});

        double baseRps = 0.0;
        for (std::size_t devices : deviceCounts) {
            ExperimentConfig cfg = baseConfig(SchedKind::DisengagedFq);
            cfg.fleet.devices = devices;
            cfg.fleet.placement = placement;

            const std::vector<WorkloadSpec> mix = mixFor(devices);
            const RunResult r = ExperimentRunner(cfg).run(mix);
            if (devices == 1)
                baseRps = r.throughputRps;

            table.addRow({
                Table::num(static_cast<double>(devices), 0),
                Table::num(static_cast<double>(mix.size()), 0),
                Table::num(r.throughputRps, 0),
                Table::num(baseRps > 0.0 ? r.throughputRps / baseRps
                                         : 0.0,
                           2) +
                    "x",
                Table::num(r.fairness.taskFairness, 3),
                Table::num(r.fairness.deviceBalance, 3),
                Table::num(r.fairness.vtimeSpreadMs, 1),
            });
        }
        table.print();
        std::cout << "\n";
    }

    std::cout << "Expected shape: near-linear throughput scaling (the\n"
                 "devices are independent), task-fairness close to the\n"
                 "single-device value, and device balance near 1 for\n"
                 "the load-aware policies." << std::endl;
    return 0;
}
