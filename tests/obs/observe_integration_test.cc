/**
 * @file
 * Acceptance tests for the observability plane on the PR-4 open-system
 * serving scenario: a traced oversubscribed run over a heterogeneous
 * DFQ fleet must yield a Chrome timeline with engage/disengage spans
 * on every device track, session flow events spanning a migration,
 * and counter tracks for queue depth and virtual-time lag — and
 * switching tracing on must not change the simulation's results, there
 * or in a closed multi-device run. The fleet probes must also read
 * exactly the device stacks' own state at every sample, serial and
 * sharded.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

#include "harness/serve_runner.hh"
#include "obs/chrome_trace.hh"

namespace neon
{
namespace
{

using namespace obs;

/** The serve_integration scenario: guaranteed queueing + migration. */
ExperimentConfig
scenarioConfig()
{
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 4;
    cfg.fleet.speedFactors = {1.25, 1.0, 1.0, 0.75};
    cfg.serve.slotsPerDevice = 2;
    cfg.serve.admission = AdmissionKind::Fifo;
    cfg.serve.useGlobalClock = true;
    cfg.serve.clockPeriod = msec(10);
    cfg.serve.migrationLag = msec(10);
    cfg.serve.migrationMinTasks = 2;
    cfg.measure = sec(4);
    return cfg;
}

std::vector<ServeWorkloadSpec>
scenarioClasses()
{
    WorkloadSpec w = WorkloadSpec::throttle(usec(430));
    w.label = "open";
    return {{w, ArrivalSpec::poisson(100.0, sec(1.2)),
             LifetimeSpec::fixed(msec(250))}};
}

TEST(ObserveIntegration, TracedServeRunProducesCompleteTimeline)
{
    ExperimentConfig cfg = scenarioConfig();
    cfg.observe.categories = defaultTraceCategories;
    cfg.observe.bufferCapacity = std::size_t(1) << 18;
    cfg.observe.samplePeriod = msec(5);

    ServeWorld world(cfg, scenarioClasses());
    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();
    ASSERT_NE(world.observer, nullptr);
    ASSERT_GE(r.migrations, 1u) << "scenario must migrate to be a "
                                   "meaningful flow-event test";

    const auto records = world.observer->recorder().snapshot();
    ASSERT_FALSE(records.empty());
    const ChromeTimeline tl = buildChromeEvents(records);

    // Timestamps are non-decreasing per track (Chrome requirement).
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> last;
    for (const auto &e : tl.events) {
        auto [it, fresh] = last.try_emplace({e.pid, e.tid}, e.ts);
        if (!fresh) {
            ASSERT_GE(e.ts, it->second) << e.name;
            it->second = e.ts;
        }
    }

    // Every device track carries at least one complete engage span
    // (the B and the E of dfq.engage) and at least one free-run span.
    for (std::uint32_t dev = 0; dev < 4; ++dev) {
        const std::uint32_t pid = dev + 1;
        std::size_t engage_b = 0, engage_e = 0, freerun_b = 0;
        for (const auto &e : tl.events) {
            if (e.pid != pid)
                continue;
            engage_b += e.ph == 'B' && e.name == "dfq.engage";
            engage_e += e.ph == 'E' && e.name == "dfq.engage";
            freerun_b += e.ph == 'B' && e.name == "dfq.free_run";
        }
        EXPECT_GE(engage_b, 1u) << "device " << dev;
        EXPECT_GE(engage_e, 1u) << "device " << dev;
        EXPECT_GE(freerun_b, 1u) << "device " << dev;
    }

    // At least one session's flow arrow spans two device tracks: the
    // FlowStep emitted at migration lands on a different pid than the
    // session's FlowStart at admission.
    std::map<std::int64_t, std::set<std::uint32_t>> flow_pids;
    for (const auto &e : tl.events) {
        if (e.ph == 's' || e.ph == 't' || e.ph == 'f')
            flow_pids[e.id].insert(e.pid);
    }
    bool crossed = false;
    for (const auto &[sid, pids] : flow_pids)
        crossed = crossed || pids.size() >= 2;
    EXPECT_TRUE(crossed) << "no session flow spans a migration";

    // Counter tracks exist for per-device queue depth and fleet-wide
    // virtual-time lag, with at least a few samples each.
    std::map<std::string, std::size_t> counter_samples;
    for (const auto &e : tl.events) {
        if (e.ph == 'C')
            ++counter_samples[e.name];
    }
    EXPECT_GE(counter_samples["dev0.queue_depth"], 3u);
    EXPECT_GE(counter_samples["fleet.vtime_lag_ms"], 3u);
    EXPECT_GE(counter_samples["serve.queue_len"], 3u);

    // Session lifecycle: async begin/end pairs on the sessions lane.
    std::size_t async_b = 0, async_e = 0;
    for (const auto &e : tl.events) {
        async_b += e.ph == 'b';
        async_e += e.ph == 'e';
    }
    EXPECT_GE(async_b, r.departures > 0 ? 1u : 0u);
    EXPECT_GE(async_e, 1u);

    // The serialized timeline is structurally sound JSON (the CI step
    // re-validates a real run with python -m json.tool).
    std::ostringstream os;
    writeChromeTrace(os, tl);
    const std::string out = os.str();
    int depth = 0;
    bool in_string = false, escaped = false;
    for (char c : out) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_string);
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
}

TEST(ObserveIntegration, TracingDoesNotPerturbSimulationResults)
{
    const auto classes = scenarioClasses();

    ExperimentConfig plain_cfg = scenarioConfig();
    ServeWorld plain(plain_cfg, classes);
    plain.start();
    plain.runFor(plain_cfg.measure);
    const ServeRunResult a = plain.results();

    ExperimentConfig traced_cfg = scenarioConfig();
    traced_cfg.observe.categories = allTraceCategories;
    traced_cfg.observe.bufferCapacity = std::size_t(1) << 14; // wraps
    traced_cfg.observe.samplePeriod = msec(2);
    ServeWorld traced(traced_cfg, classes);
    traced.start();
    traced.runFor(traced_cfg.measure);
    const ServeRunResult b = traced.results();

    // The traced world really captured something (and wrapped).
    ASSERT_NE(traced.observer, nullptr);
    EXPECT_GT(traced.observer->recorder().written(), 0u);
    EXPECT_GT(traced.observer->recorder().dropped(), 0u);

    // Identical simulation outcomes: tracing only observes.
    EXPECT_EQ(a.arrivals, b.arrivals);
    EXPECT_EQ(a.departures, b.departures);
    EXPECT_EQ(a.kills, b.kills);
    EXPECT_EQ(a.migrations, b.migrations);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.elapsed, b.elapsed);
    ASSERT_EQ(a.deviceBusy.size(), b.deviceBusy.size());
    for (std::size_t i = 0; i < a.deviceBusy.size(); ++i)
        EXPECT_EQ(a.deviceBusy[i], b.deviceBusy[i]);
    ASSERT_EQ(a.sessions.size(), b.sessions.size());
    for (std::size_t i = 0; i < a.sessions.size(); ++i) {
        EXPECT_EQ(a.sessions[i].arrived, b.sessions[i].arrived);
        EXPECT_EQ(a.sessions[i].admitted, b.sessions[i].admitted);
        EXPECT_EQ(a.sessions[i].departed, b.sessions[i].departed);
        EXPECT_EQ(a.sessions[i].requests, b.sessions[i].requests);
        EXPECT_EQ(a.sessions[i].migrations, b.sessions[i].migrations);
    }
}

TEST(ObserveIntegration, TracingDoesNotPerturbClosedWorldResults)
{
    // A closed two-device DFQ run with the watchdog on, traced and
    // sampled, against the same run unobserved.
    ExperimentConfig cfg;
    cfg.sched = SchedKind::DisengagedFq;
    cfg.fleet.devices = 2;
    cfg.fault.watchdog.enabled = true;
    cfg.collectTraces = true;
    cfg.warmup = msec(100);
    cfg.measure = sec(1);
    const std::vector<WorkloadSpec> mix = {
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(430)),
        WorkloadSpec::app("DCT"),
        WorkloadSpec::throttle(usec(1700)),
    };
    const auto run = [&mix](const ExperimentConfig &c,
                            std::unique_ptr<World> &world) {
        world = std::make_unique<World>(c);
        for (const WorkloadSpec &s : mix)
            world->spawn(s);
        world->start();
        world->runFor(c.warmup);
        world->beginMeasurement();
        world->runFor(c.measure);
        return world->results();
    };

    std::unique_ptr<World> plain, traced;
    const RunResult a = run(cfg, plain);
    ExperimentConfig traced_cfg = cfg;
    traced_cfg.observe.categories = allTraceCategories;
    traced_cfg.observe.bufferCapacity = std::size_t(1) << 14; // wraps
    traced_cfg.observe.samplePeriod = msec(5);
    const RunResult b = run(traced_cfg, traced);

    EXPECT_EQ(plain->observer, nullptr);
    ASSERT_NE(traced->observer, nullptr);
    EXPECT_GT(traced->observer->recorder().written(), 0u);

    // Every per-device probe was sampled on the cadence.
    std::set<std::string> sampled;
    for (const MetricSeries &s : traced->observer->metrics().series()) {
        if (!s.samples.empty())
            sampled.insert(s.name);
    }
    for (const char *name :
         {"eq.executed", "dev0.queue_depth", "dev1.queue_depth",
          "dev0.norm_vtime_ms", "dev1.norm_vtime_ms",
          "fleet.vtime_lag_ms"})
        EXPECT_EQ(sampled.count(name), 1u) << name;

    // Identical simulation outcomes: tracing only observes.
    EXPECT_GT(a.requests, 0u);
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.deviceBusy, b.deviceBusy);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.switchOverhead, b.switchOverhead);
    EXPECT_EQ(a.kills, b.kills);
    EXPECT_EQ(a.throughputRps, b.throughputRps);
    EXPECT_EQ(a.fairness.taskFairness, b.fairness.taskFairness);
    EXPECT_EQ(a.fairness.deviceBalance, b.fairness.deviceBalance);
    EXPECT_EQ(a.fairness.vtimeSpreadMs, b.fairness.vtimeSpreadMs);
    EXPECT_EQ(a.audit.checks, b.audit.checks);
    EXPECT_EQ(a.audit.violations, 0u);
    EXPECT_EQ(b.audit.violations, 0u);
    ASSERT_EQ(a.tasks.size(), b.tasks.size());
    for (std::size_t i = 0; i < a.tasks.size(); ++i) {
        EXPECT_EQ(a.tasks[i].label, b.tasks[i].label);
        EXPECT_EQ(a.tasks[i].device, b.tasks[i].device);
        EXPECT_EQ(a.tasks[i].pid, b.tasks[i].pid);
        EXPECT_EQ(a.tasks[i].meanRoundUs, b.tasks[i].meanRoundUs);
        EXPECT_EQ(a.tasks[i].rounds, b.tasks[i].rounds);
        EXPECT_EQ(a.tasks[i].gpuBusy, b.tasks[i].gpuBusy);
        EXPECT_EQ(a.tasks[i].requests, b.tasks[i].requests);
        EXPECT_EQ(a.tasks[i].killed, b.tasks[i].killed);
        const int pid = a.tasks[i].pid;
        const std::size_t dev = a.tasks[i].device;
        EXPECT_EQ(plain->traceOf(dev).of(pid).submissions,
                  traced->traceOf(dev).of(pid).submissions);
    }
}

/** What the fleet probes should read at one sample, per the stacks. */
struct FleetStateSample
{
    Tick when = 0;
    std::vector<double> queueDepth; ///< per device
    std::vector<double> normVtime;  ///< per device
    double vtimeLag = 0.0;
};

/**
 * Runs the heterogeneous 4-device DFQ serve scenario on @p shards
 * shards, sampled every 1 ms, and checks every sample of the standard
 * fleet probes against an oracle probe registered after them. The
 * oracle reads the device stacks themselves: each policy's vtime tap
 * times the device's configured speed factor, and the fleet's load
 * views. The standard probes read the fleet's dense arrays instead.
 */
void
expectProbesMatchFleetState(unsigned shards)
{
    ExperimentConfig cfg = scenarioConfig();
    cfg.observe.samplePeriod = msec(1);
    cfg.shards.count = shards;
    cfg.shards.threads = shards;
    cfg.measure = sec(2);

    ServeWorld world(cfg, scenarioClasses());
    ASSERT_NE(world.observer, nullptr);
    FleetManager &fleet = world.fleet;
    const std::size_t n = fleet.deviceCount();
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_NE(fleet.stack(i).vtimeTap, nullptr) << "device " << i;

    std::vector<FleetStateSample> oracle;
    world.observer->metrics().probe("test.oracle", [&] {
        FleetStateSample o;
        o.when = world.eq.now();
        const std::vector<DeviceLoadView> loads = fleet.loadViews();
        for (std::size_t i = 0; i < n; ++i) {
            o.queueDepth.push_back(
                static_cast<double>(loads[i].assignedTasks));
            const DeviceStack &s = fleet.stack(i);
            o.normVtime.push_back(toMsec(s.vtimeTap->tapSystemVtime()) *
                                  s.device.config().speedFactor);
        }
        const auto [lo, hi] =
            std::minmax_element(o.normVtime.begin(), o.normVtime.end());
        o.vtimeLag = *hi - *lo;
        oracle.push_back(std::move(o));
        return 0.0;
    });

    world.start();
    world.runFor(cfg.measure);
    const ServeRunResult r = world.results();
    ASSERT_GT(r.departures, 0u);
    ASSERT_GE(oracle.size(), 1000u);

    std::map<std::string, const MetricSeries *> series;
    for (const MetricSeries &s : world.observer->metrics().series())
        series[s.name] = &s;

    // Every sample equals the oracle's, bit for bit and at its time.
    const auto expectSeries = [&](const std::string &name,
                                  const auto &want) {
        ASSERT_EQ(series.count(name), 1u) << name;
        const std::vector<MetricSample> &got = series[name]->samples;
        ASSERT_EQ(got.size(), oracle.size()) << name;
        for (std::size_t k = 0; k < got.size(); ++k) {
            ASSERT_EQ(got[k].when, oracle[k].when) << name << " #" << k;
            ASSERT_EQ(got[k].value, want(oracle[k]))
                << name << " at " << toMsec(got[k].when) << " ms";
        }
    };
    for (std::size_t i = 0; i < n; ++i) {
        const std::string dev = "dev" + std::to_string(i);
        expectSeries(dev + ".queue_depth", [i](const FleetStateSample &o) {
            return o.queueDepth[i];
        });
        expectSeries(dev + ".norm_vtime_ms", [i](const FleetStateSample &o) {
            return o.normVtime[i];
        });
    }
    expectSeries("fleet.vtime_lag_ms",
                 [](const FleetStateSample &o) { return o.vtimeLag; });

    // The comparison is not vacuous: every device held tasks and
    // advanced its vtime, and the speed-normalized vtimes diverged.
    for (std::size_t i = 0; i < n; ++i) {
        bool held = false;
        for (const FleetStateSample &o : oracle)
            held = held || o.queueDepth[i] > 0.0;
        EXPECT_TRUE(held) << "device " << i;
        EXPECT_GT(oracle.back().normVtime[i], 0.0) << "device " << i;
    }
    bool lagged = false;
    for (const FleetStateSample &o : oracle)
        lagged = lagged || o.vtimeLag > 0.0;
    EXPECT_TRUE(lagged);
}

TEST(ObserveIntegration, ProbesMatchFleetState)
{
    expectProbesMatchFleetState(0);
}

TEST(ObserveIntegration, ShardedProbesMatchFleetState)
{
    expectProbesMatchFleetState(3);
}

} // namespace
} // namespace neon
