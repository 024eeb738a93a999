/**
 * @file
 * Deterministic serve-engine scenarios: admission queueing and drain,
 * full usage accounting across departures, protection kills freeing
 * slots, sticky spill-and-return under dynamic arrivals/departures,
 * and clock-steered migration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <string>

#include "harness/serve_runner.hh"
#include "workload/adversary.hh"

namespace neon
{
namespace
{

/** Base config: cheap Direct scheduling for pure lifecycle tests. */
ExperimentConfig
serveConfig(std::size_t devices, std::size_t slots,
            SchedKind sched = SchedKind::Direct)
{
    ExperimentConfig cfg;
    cfg.sched = sched;
    cfg.fleet.devices = devices;
    cfg.fleet.placement = PlacementKind::LeastLoaded;
    cfg.serve.slotsPerDevice = slots;
    return cfg;
}

ServeWorkloadSpec
throttleAt(const std::string &label, std::vector<Tick> times,
           Tick lifetime, const std::string &affinity = "")
{
    WorkloadSpec w = WorkloadSpec::throttle(usec(100));
    w.label = label;
    if (!affinity.empty())
        w.withAffinity(affinity);
    return {std::move(w), ArrivalSpec::trace(std::move(times)),
            LifetimeSpec::fixed(lifetime)};
}

TEST(ServeEngine, QueuesBeyondCapacityAndDrains)
{
    // One device, four arrivals: whatever does not fit the slots waits
    // for departures, strictly FIFO. The slots are configured outright
    // or derived from the Section 6.3 user bound (channel pool / per-task
    // channel limit, never fewer than one).
    struct Case
    {
        std::size_t slots, maxChannels, perTaskLimit, capacity;
    };
    for (const Case k : {Case{2, 96, 8, 2}, Case{0, 16, 8, 2},
                         Case{0, 4, 8, 1}}) {
        SCOPED_TRACE(testing::Message()
                     << "slots " << k.slots << ", pool " << k.maxChannels
                     << " / " << k.perTaskLimit);
        ExperimentConfig cfg = serveConfig(1, k.slots);
        cfg.device.maxChannels = k.maxChannels;
        cfg.channelPolicy.perTaskLimit = k.perTaskLimit;
        cfg.measure = msec(400);
        ServeRunner runner(cfg);

        const ServeRunResult r = runner.run(
            {
                throttleAt("a", {0}, msec(50)),
                throttleAt("b", {usec(10)}, msec(50)),
                throttleAt("c", {usec(20)}, msec(50)),
                throttleAt("d", {usec(30)}, msec(50)),
            },
            /*with_slowdowns=*/false);

        EXPECT_EQ(r.arrivals, 4u);
        EXPECT_EQ(r.departures, 4u);
        EXPECT_EQ(r.kills, 0u);
        EXPECT_EQ(r.queuedAtEnd, 0u);
        EXPECT_EQ(r.capacity, k.capacity);
        EXPECT_EQ(r.peakQueueDepth, 4u - k.capacity);
        EXPECT_EQ(r.peakLiveSessions, 4u);

        const ServeSessionResult &a = r.byLabel("a#0");
        const ServeSessionResult &c = r.byLabel("c#2");
        const ServeSessionResult &d = r.byLabel("d#3");
        // a admits immediately; c and d wait for departures.
        EXPECT_EQ(a.admitted, a.arrived);
        EXPECT_GE(c.admitted, msec(50));
        EXPECT_GE(d.admitted, msec(50));
        EXPECT_GE(d.admitted, c.admitted);
        // Everyone got device time and departed after its 50 ms
        // lifetime.
        for (const auto &s : r.sessions) {
            EXPECT_TRUE(s.hasDeparted()) << s.label;
            EXPECT_GT(s.busy, 0) << s.label;
            EXPECT_GT(s.requests, 0u) << s.label;
            EXPECT_NEAR(toMsec(s.departed - s.admitted), 50.0, 1.0);
        }
        // Queueing-delay SLO covers the queued sessions.
        EXPECT_EQ(r.slo.queueDelayMs.count, 4u);
        EXPECT_GT(r.slo.queueDelayMs.max, 40.0);
        EXPECT_EQ(r.slo.sojournMs.count, 4u);
    }
}

TEST(ServeEngine, UsageFullyAccountedAcrossDepartures)
{
    ExperimentConfig cfg = serveConfig(2, 2);
    cfg.measure = msec(300);
    ServeWorld world(cfg, {
                              throttleAt("a", {0, usec(10), usec(20),
                                               usec(30), msec(100)},
                                         msec(40)),
                          });
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    EXPECT_EQ(r.arrivals, 5u);
    EXPECT_EQ(r.departures, 5u);

    // Every departed session's usage stays accounted: the sum over
    // sessions equals the fleet's ground-truth meters exactly.
    Tick session_busy = 0;
    std::uint64_t session_reqs = 0;
    for (const auto &s : r.sessions) {
        session_busy += s.busy;
        session_reqs += s.requests;
    }
    Tick meter_busy = 0;
    for (std::size_t i = 0; i < world.fleet.deviceCount(); ++i)
        meter_busy += world.fleet.stack(i).meter.totalBusy();
    EXPECT_EQ(session_busy, meter_busy);
    EXPECT_EQ(session_reqs, r.requests);
    EXPECT_GT(session_busy, 0);
}

TEST(ServeEngine, ProtectionKillFreesAdmissionSlot)
{
    // A runaway tenant saturates the single slot; DFQ kills it, and
    // the queued well-behaved session takes the freed slot.
    ExperimentConfig cfg = serveConfig(1, 1, SchedKind::DisengagedFq);
    cfg.dfq.killThreshold = msec(100);
    cfg.measure = sec(1.5);

    WorkloadSpec evil = WorkloadSpec::custom(
        "evil", [](Task &t, std::uint64_t) {
            return infiniteKernelBody(t, 3, usec(100));
        });
    ServeWorkloadSpec evil_spec{evil, ArrivalSpec::trace({0}),
                                LifetimeSpec::forever()};
    ServeWorkloadSpec good_spec{WorkloadSpec::throttle(usec(100)),
                                ArrivalSpec::trace({msec(1)}),
                                LifetimeSpec::fixed(msec(100))};
    good_spec.workload.label = "good";

    ServeRunner runner(cfg);
    const ServeRunResult r =
        runner.run({evil_spec, good_spec}, /*with_slowdowns=*/false);

    EXPECT_EQ(r.kills, 1u);
    const ServeSessionResult &bad = r.byLabel("evil#0");
    const ServeSessionResult &good = r.byLabel("good#1");
    EXPECT_TRUE(bad.killed);
    EXPECT_TRUE(bad.hasDeparted());
    EXPECT_FALSE(good.killed);
    EXPECT_TRUE(good.wasAdmitted());
    EXPECT_GE(good.admitted, bad.departed);
    EXPECT_TRUE(good.hasDeparted());
    EXPECT_GT(good.requests, 0u);
    EXPECT_EQ(r.queuedAtEnd, 0u);
}

TEST(ServeEngine, StickySpillAndReturnWithEviction)
{
    // The ROADMAP's dynamic-arrival/departure sticky scenario:
    //  t=0      T-a arrives -> home device picked, affinity T mapped
    //  t=10ms   T-b arrives -> home at capacity, spills elsewhere
    //  t=30ms   T-a departs -> home frees, T-b still pins the mapping
    //  t=50ms   T-c arrives -> returns to the home device
    //  t=80ms   T-c departs; t=110ms T-b departs -> key evicted
    //  t=120ms  B arrives and occupies the old home device
    //  t=200ms  T-d arrives -> re-places against current load (not the
    //           dead mapping), landing on the other device
    ExperimentConfig cfg = serveConfig(2, 4);
    cfg.fleet.placement = PlacementKind::Sticky;
    cfg.fleet.stickyCapacity = 1;

    std::vector<ServeWorkloadSpec> specs = {
        throttleAt("T-a", {0}, msec(30), "T"),
        throttleAt("T-b", {msec(10)}, msec(100), "T"),
        throttleAt("T-c", {msec(50)}, msec(30), "T"),
        throttleAt("B", {msec(120)}, msec(300), "B"),
        throttleAt("T-d", {msec(200)}, msec(50), "T"),
    };

    ServeWorld world(cfg, specs);
    auto *sticky =
        dynamic_cast<StickyPlacement *>(&world.fleet.placement());
    ASSERT_NE(sticky, nullptr);

    world.start();
    world.runFor(msec(20));
    const int home = sticky->preferredOf("T");
    ASSERT_GE(home, 0);

    // T-b spilled off the over-capacity home while the mapping held.
    world.runFor(msec(20)); // t=40ms
    const ServeRunResult mid = world.results();
    const std::size_t home_dev = static_cast<std::size_t>(home);
    EXPECT_EQ(mid.byLabel("T-a#0").devices.at(0), home_dev);
    EXPECT_NE(mid.byLabel("T-b#1").devices.at(0), home_dev);
    EXPECT_EQ(sticky->preferredOf("T"), home);

    // T-c returns home after T-a's departure freed capacity.
    world.runFor(msec(30)); // t=70ms
    EXPECT_EQ(world.results().byLabel("T-c#2").devices.at(0), home_dev);

    // All T sessions gone: the affinity key is evicted.
    world.runFor(msec(45)); // t=115ms
    EXPECT_EQ(sticky->preferredOf("T"), -1);

    // Returning tenant re-places against current load: B occupies the
    // old home, so T-d maps to the other device.
    world.runFor(msec(100)); // t=215ms
    const ServeRunResult late = world.results();
    EXPECT_EQ(late.byLabel("B#3").devices.at(0), home_dev);
    EXPECT_NE(late.byLabel("T-d#4").devices.at(0), home_dev);
    EXPECT_EQ(sticky->preferredOf("T"),
              static_cast<int>(late.byLabel("T-d#4").devices.at(0)));
}

Co
openAndExitBody(Task &t)
{
    // Open a channel, then end the body while still holding it — the
    // shape of a real app whose later setup fails after earlier opens
    // succeeded. The task goes State::Done with live channels.
    co_await t.openChannel(RequestClass::Compute);
    co_return;
}

TEST(ServeEngine, EarlyExitingBodyStillReleasesChannelsAndAffinity)
{
    ExperimentConfig cfg = serveConfig(2, 2);
    cfg.fleet.placement = PlacementKind::Sticky;

    WorkloadSpec w = WorkloadSpec::custom(
        "early",
        [](Task &t, std::uint64_t) { return openAndExitBody(t); });
    w.withAffinity("E");
    ServeWorkloadSpec spec{w, ArrivalSpec::trace({0}),
                           LifetimeSpec::fixed(msec(20))};

    ServeWorld world(cfg, {spec});
    auto *sticky =
        dynamic_cast<StickyPlacement *>(&world.fleet.placement());
    ASSERT_NE(sticky, nullptr);
    world.start();

    // Mid-lifetime: the body has finished but the session still holds
    // its slot, channel, and affinity mapping.
    world.runFor(msec(10));
    EXPECT_GE(sticky->preferredOf("E"), 0);
    std::size_t active = 0;
    for (std::size_t i = 0; i < world.fleet.deviceCount(); ++i)
        active += world.fleet.stack(i).kernel.activeChannels().size();
    EXPECT_EQ(active, 1u);

    // Departure must reclaim the held channel and evict the affinity
    // key even though the task was already Done, not Running.
    world.runFor(msec(30));
    const ServeRunResult r = world.results();
    EXPECT_EQ(r.departures, 1u);
    EXPECT_EQ(sticky->preferredOf("E"), -1);
    for (std::size_t i = 0; i < world.fleet.deviceCount(); ++i) {
        EXPECT_TRUE(world.fleet.stack(i).kernel.activeChannels().empty())
            << "device " << i << " leaked a channel";
    }
}

TEST(ServeEngine, GlobalClockMigratesOffCrowdedDevice)
{
    // Three forever-sessions on two DFQ devices: steering packs two on
    // one device, whose virtual time then lags the solo device; the
    // clock migrates the crowded device's most-ahead session over.
    ExperimentConfig cfg = serveConfig(2, 2, SchedKind::DisengagedFq);
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(10);
    cfg.serve.migrationMinTasks = 2;
    cfg.measure = sec(1);

    WorkloadSpec w = WorkloadSpec::throttle(usec(430));
    w.label = "long";
    ServeWorkloadSpec spec{w, ArrivalSpec::trace({0, 0, 0}),
                           LifetimeSpec::forever()};

    ServeWorld world(cfg, {spec});
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();

    EXPECT_EQ(r.arrivals, 3u);
    EXPECT_GE(r.migrations, 1u);

    // Consistency: per-session migration counts sum to the engine's
    // total, and each migrated session's device history shows a move.
    std::uint64_t session_migrations = 0;
    for (const auto &s : r.sessions) {
        session_migrations += static_cast<std::uint64_t>(s.migrations);
        ASSERT_EQ(s.devices.size(),
                  static_cast<std::size_t>(s.migrations) + 1);
        for (std::size_t i = 1; i < s.devices.size(); ++i)
            EXPECT_NE(s.devices[i], s.devices[i - 1]);
    }
    EXPECT_EQ(session_migrations, r.migrations);

    // Usage is still fully accounted across incarnations.
    Tick session_busy = 0;
    for (const auto &s : r.sessions)
        session_busy += s.busy;
    Tick meter_busy = 0;
    for (std::size_t i = 0; i < world.fleet.deviceCount(); ++i)
        meter_busy += world.fleet.stack(i).meter.totalBusy();
    EXPECT_EQ(session_busy, meter_busy);

    // Both devices ended up doing real work.
    ASSERT_EQ(r.deviceBusy.size(), 2u);
    EXPECT_GT(r.deviceBusy[0], 0);
    EXPECT_GT(r.deviceBusy[1], 0);
}

/** One engaged-FQ run with clock-steered migration, fingerprinted. */
struct EngagedMigrationRun
{
    ServeRunResult result;
    std::uint64_t events = 0;
    /** Migrations whose victim was not the source's lowest session id. */
    std::size_t notLowestVictims = 0;
    std::vector<std::string> fingerprint;
};

EngagedMigrationRun
runEngagedMigration()
{
    // Two small-request sessions arrive first, then two large-request
    // ones: under engaged FQ a large request's finish tag runs ahead
    // of a small one's by the size difference, so the tap ranks the
    // later, larger sessions first.
    ExperimentConfig cfg = serveConfig(2, 3, SchedKind::EngagedFq);
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(10);
    cfg.serve.migrationMinTasks = 2;
    cfg.measure = sec(1);

    WorkloadSpec small = WorkloadSpec::throttle(usec(100));
    small.label = "small";
    WorkloadSpec large = WorkloadSpec::throttle(usec(1700));
    large.label = "large";
    const std::vector<ServeWorkloadSpec> specs = {
        {small, ArrivalSpec::trace({0, 0}), LifetimeSpec::forever()},
        {large, ArrivalSpec::trace({msec(1), msec(1)}),
         LifetimeSpec::forever()},
    };

    ServeWorld world(cfg, specs);
    EngagedMigrationRun run;
    // Follow each session's device from the lifecycle stream, so each
    // migration can be checked against the sessions on its source.
    std::map<std::uint64_t, std::int32_t> deviceOf;
    world.engine.addSessionListener([&](const SessionEvent &e) {
        if (e.kind == SessionEvent::Kind::Admit) {
            deviceOf[e.session] = e.device;
        } else if (e.kind == SessionEvent::Kind::Migrate) {
            const std::int32_t from = deviceOf.at(e.session);
            std::uint64_t lowest = e.session;
            for (const auto &[sid, dev] : deviceOf) {
                if (dev == from)
                    lowest = std::min(lowest, sid);
            }
            if (e.session != lowest)
                ++run.notLowestVictims;
            deviceOf[e.session] = e.device;
        }
    });
    world.start();
    world.runFor(cfg.measure);
    run.result = world.results();
    run.events = world.eventsExecuted();

    for (const auto &s : run.result.sessions) {
        std::string devs;
        for (std::size_t d : s.devices)
            devs += std::to_string(d) + ",";
        run.fingerprint.push_back(
            s.label + " adm=" + std::to_string(s.admitted) +
            " busy=" + std::to_string(s.busy) +
            " reqs=" + std::to_string(s.requests) +
            " mig=" + std::to_string(s.migrations) + " devs=" + devs);
    }
    run.fingerprint.push_back("events=" + std::to_string(run.events));
    return run;
}

TEST(ServeEngine, EngagedFqMigrationRanksVictimsByFinishTag)
{
    // ServeEngine::tryMigrate picks the source device's most-ahead
    // session through the policy's vtime tap; under engaged FQ that
    // is the task's finish tag.
    const EngagedMigrationRun a = runEngagedMigration();
    const ServeRunResult &r = a.result;

    EXPECT_EQ(r.arrivals, 4u);
    EXPECT_GE(r.migrations, 1u);
    EXPECT_TRUE(r.audit.clean()) << r.audit.summary();
    EXPECT_GT(r.audit.checks, 0u);

    // A tap that read 0 for every task would tie them all and move the
    // source's lowest session id every time.
    EXPECT_GT(a.notLowestVictims, 0u);

    // Usage stays fully accounted across incarnations.
    Tick session_busy = 0;
    for (const auto &s : r.sessions)
        session_busy += s.busy;
    EXPECT_EQ(session_busy, std::accumulate(r.deviceBusy.begin(),
                                            r.deviceBusy.end(), Tick(0)));

    // A repeat run is bit-identical.
    EXPECT_EQ(runEngagedMigration().fingerprint, a.fingerprint);
}

} // namespace
} // namespace neon
