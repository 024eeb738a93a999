/**
 * @file
 * Section 6.3 demo: channel-exhaustion denial of service, and the
 * protected allocation policy that stops it.
 */

#include <iostream>

#include "neon/neon.hh"

namespace
{

using namespace neon;

void
runScenario(bool protect)
{
    ExperimentConfig cfg;
    cfg.channelPolicy.protect = protect;
    cfg.channelPolicy.perTaskLimit = 8;

    World world(cfg);
    DosOutcome attacker, victim;
    world.spawn(WorkloadSpec::custom(
        "attacker", [&attacker](Task &t, std::uint64_t) {
            return channelDosBody(t, &attacker);
        }));
    world.spawn(WorkloadSpec::custom(
        "victim", [&victim](Task &t, std::uint64_t) {
            return dosVictimBody(t, &victim, usec(100), msec(20));
        }));
    world.start();
    world.runFor(msec(200));

    std::cout << (protect ? "WITH" : "WITHOUT")
              << " the protected allocation policy:\n"
              << "  attacker created " << attacker.contextsCreated
              << " contexts / " << attacker.channelsCreated
              << " channels before being stopped\n"
              << "  device channels in use: "
              << world.fleet.stack(0).device.channelsInUse() << " of "
              << world.fleet.stack(0).device.config().maxChannels << "\n"
              << "  victim " << (victim.channelsCreated > 0
                                     ? "got its channel and is running"
                                     : "was LOCKED OUT of the GPU")
              << "\n\n";
}

} // namespace

int
main()
{
    std::cout << "Channel-exhaustion DoS (paper Section 6.3): the "
                 "attacker opens context\nafter context, each with one "
                 "compute and one DMA channel.\n\n";
    runScenario(false);
    runScenario(true);
    std::cout << "Policy: at most C channels per task and D/C "
                 "concurrent GPU users,\nwhere D is the device's "
                 "channel count.\n";
    return 0;
}
