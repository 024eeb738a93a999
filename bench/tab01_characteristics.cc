/**
 * @file
 * Table 1 reproduction: per-round and per-request times for every
 * benchmark, measured solo under direct device access through the
 * request-interception machinery (measurement only, no policy).
 */

#include "common.hh"

using namespace neonbench;

int
main()
{
    banner("Table 1", "benchmarks and their characteristics");

    Table table({"application", "area", "us/round", "paper",
                 "us/request", "paper(req)"});

    for (const AppProfile &p : AppRegistry::all()) {
        ExperimentConfig cfg = baseConfig(SchedKind::Direct, 2.0);
        cfg.collectTraces = true;

        World world(cfg);
        Task &t = world.spawn(WorkloadSpec::app(p.name));
        world.start();
        world.runFor(cfg.warmup);
        world.beginMeasurement();
        world.runFor(cfg.measure);
        RunResult r = world.results();

        const auto &pt = world.traceOf(0).of(t.pid());
        std::string paper_req = Table::num(p.paperReqUs, 0);
        if (p.paperReqUs2 > 0) {
            paper_req += "/";
            paper_req += Table::num(p.paperReqUs2, 0);
        }

        table.addRow({p.name, p.area,
                      Table::num(r.tasks[0].meanRoundUs, 0),
                      Table::num(p.paperRoundUs, 0),
                      Table::num(pt.serviceAccumUs.mean(), 0),
                      paper_req});
    }

    table.print();
    std::cout << "\nA \"round\" is one main-loop iteration (compute) or "
                 "one frame (graphics).\nRequest sizes are averages over "
                 "awaited requests; combined apps blend\ncompute and "
                 "graphics requests (the paper reports them separately)."
              << std::endl;
    return 0;
}
