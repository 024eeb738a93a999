/**
 * @file
 * Figure 2 reproduction: CDFs of request inter-arrival periods and
 * service times (log2 microsecond bins) for the small-request
 * applications glxgears, oclParticles and simpleTexture3D.
 */

#include "common.hh"

using namespace neonbench;

namespace
{

void
printCdf(const char *title, unsigned max_bin,
         const std::vector<std::pair<std::string, const Log2Histogram *>>
             &series)
{
    std::cout << title << "\n";
    Table table([&] {
        std::vector<std::string> hdr = {"log2(us) bin"};
        for (const auto &s : series)
            hdr.push_back(s.first);
        return hdr;
    }());

    for (unsigned b = 0; b <= max_bin; ++b) {
        std::vector<std::string> row = {std::to_string(b)};
        for (const auto &s : series)
            row.push_back(Table::num(s.second->cdfPercent(b), 1));
        table.addRow(std::move(row));
    }
    table.print();
    std::cout << "\n";
}

} // namespace

int
main()
{
    banner("Figure 2",
           "CDFs of request inter-arrival and service periods");

    const std::vector<std::string> apps = {"glxgears", "oclParticles",
                                           "simpleTexture3D"};

    std::vector<std::unique_ptr<World>> worlds;
    std::vector<std::pair<std::string, const Log2Histogram *>> arrivals;
    std::vector<std::pair<std::string, const Log2Histogram *>> services;

    for (const auto &name : apps) {
        ExperimentConfig cfg = baseConfig(SchedKind::Direct, 2.0);
        cfg.collectTraces = true;
        auto world = std::make_unique<World>(cfg);
        Task &t = world->spawn(WorkloadSpec::app(name));
        world->start();
        world->runFor(cfg.warmup);
        world->beginMeasurement();
        world->runFor(cfg.measure);

        const auto &pt = world->traceOf(0).of(t.pid());
        arrivals.emplace_back(name, &pt.interArrivalUs);
        services.emplace_back(name, &pt.serviceUs);
        worlds.push_back(std::move(world));
    }

    printCdf("Request inter-arrival period (CDF %, by log2 us bin)", 17,
             arrivals);
    printCdf("Request service period (CDF %, by log2 us bin)", 13,
             services);

    std::cout << "Paper shape: a large fraction of requests arrive "
                 "back-to-back and are\nserviced in under ~10us (bins "
                 "0-3)." << std::endl;
    return 0;
}
