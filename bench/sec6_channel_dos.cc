/**
 * @file
 * Section 6.3 reproduction: the channel-exhaustion denial-of-service
 * attack and the protected channel-allocation policy.
 */

#include "common.hh"

using namespace neonbench;

namespace
{

struct DosResult
{
    int contexts = 0;
    int channels = 0;
    OpenResult attackerStop = OpenResult::Ok;
    bool victimGotChannel = false;
    std::uint64_t victimRounds = 0;
};

const char *
openResultName(OpenResult r)
{
    switch (r) {
      case OpenResult::Ok:
        return "ok";
      case OpenResult::OutOfChannels:
        return "out-of-channels";
      case OpenResult::PerTaskLimit:
        return "per-task-limit";
      case OpenResult::TooManyUsers:
        return "too-many-users";
    }
    return "?";
}

DosResult
runScenario(bool protect)
{
    ExperimentConfig cfg = baseConfig(SchedKind::Direct, 0.3);
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
            // The attacker strikes first; the victim shows up 50ms in.
            return dosVictimBody(t, &victim, usec(100), msec(50));
        }));
    world.start();
    world.runFor(msec(300));

    DosResult r;
    r.contexts = attacker.contextsCreated;
    r.channels = attacker.channelsCreated;
    r.attackerStop = attacker.firstFailure;
    r.victimGotChannel = victim.channelsCreated > 0;
    for (Task *t : world.fleet.tasks()) {
        if (t->name() == "victim")
            r.victimRounds = t->roundTimes().count();
    }
    return r;
}

} // namespace

int
main()
{
    banner("Section 6.3", "channel-exhaustion DoS and protection");

    Table table({"policy", "attacker contexts", "attacker channels",
                 "attacker stopped by", "victim got channel",
                 "victim rounds"});

    for (bool protect : {false, true}) {
        const DosResult r = runScenario(protect);
        table.addRow({protect ? "protected (C=8, D/C users)"
                              : "unprotected",
                      std::to_string(r.contexts),
                      std::to_string(r.channels),
                      openResultName(r.attackerStop),
                      r.victimGotChannel ? "yes" : "NO",
                      std::to_string(r.victimRounds)});
    }

    table.print();
    std::cout << "\nPaper: after 48 contexts (one compute + one DMA "
                 "channel each) no other\napplication could use the "
                 "GPU; the protected allocation policy caps each\ntask "
                 "at C channels and admits at most D/C concurrent GPU "
                 "users." << std::endl;
    return 0;
}
