/**
 * @file
 * Work-conservation demo: an interactive (frame-paced, mostly idle)
 * application shares the device with a batch job. Timeslice policies
 * strand the interactive task's idle slices; Disengaged Fair Queueing
 * hands the spare capacity to the batch job without hurting the
 * interactive one.
 */

#include <iostream>

#include "neon/neon.hh"

int
main()
{
    using namespace neon;

    // The "interactive" task: bursts of work, 80% off time.
    const WorkloadSpec interactive =
        WorkloadSpec::throttle(usec(1700), 0.8);
    // The batch job wants every spare cycle.
    const WorkloadSpec batch = WorkloadSpec::app("DCT");

    std::cout << "Interactive (80% idle) + batch co-run.\n\n";

    Table table({"scheduler", "batch slowdown", "interactive slowdown",
                 "device utilization"});

    for (SchedKind kind : paperSchedulers) {
        ExperimentConfig cfg;
        cfg.sched = kind;
        cfg.measure = sec(3);
        ExperimentRunner runner(cfg);

        const RunResult r = runner.run({batch, interactive});
        const double sd_batch =
            r.tasks[0].meanRoundUs / runner.soloRoundUs(batch);
        const double sd_inter =
            r.tasks[1].meanRoundUs / runner.soloRoundUs(interactive);

        table.addRow({schedKindName(kind),
                      Table::num(sd_batch, 2) + "x",
                      Table::num(sd_inter, 2) + "x",
                      Table::num(100.0 * toSec(r.deviceBusy[0]) /
                                     toSec(r.elapsed), 1) + "%"});
    }

    table.print();

    std::cout << "\nFairness does not require equal suffering: under "
                 "Disengaged Fair Queueing\nthe batch job reclaims the "
                 "interactive task's idle time (utilization near\n"
                 "100%), while the timeslice policies leave the device "
                 "dark during the\ninteractive task's slices.\n";
    return 0;
}
