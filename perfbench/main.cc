/**
 * @file
 * neon_perfbench: one benchmark run of one workload, printed as a
 * single JSON object on stdout.
 *
 *   neon_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * --trace 0 is the end-to-end pass: untraced runs in the default
 * config (auditor on), repeated until S host seconds have passed, each
 * timed in host seconds; the object carries every sample.
 * --trace 1 is the per-layer pass: a capture run, default, audit-off
 * and traced reruns, the admission replay, and the isolated layer
 * drivers. Both carry every run's result fingerprint and audit outcome
 * so run.py can check correctness. run.py builds this program and is
 * the benchmark's entry point.
 */

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <thread>

#include "bench.hh"

#ifndef NEON_BENCH_COMPILER
#define NEON_BENCH_COMPILER "unknown"
#endif
#ifndef NEON_BENCH_BUILD_TYPE
#define NEON_BENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace
{

/** A JSON number with every digit (non-finite values print as 0). */
std::string
number(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

/** A flat JSON object built in insertion order. */
class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double v)
    {
        return raw(key, number(v));
    }

    JsonObject &
    count(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &
    str(const std::string &key, const std::string &v)
    {
        std::string q = "\"";
        for (char c : v) {
            if (c == '"' || c == '\\')
                q += '\\';
            q += c;
        }
        return raw(key, q + "\"");
    }

    JsonObject &
    flag(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }

    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        if (!body.empty())
            body += ", ";
        body += "\"" + key + "\": " + json;
        return *this;
    }

    std::string text() const { return "{" + body + "}"; }

  private:
    std::string body;
};

std::string
hex(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Build and host identity, so two machines never read as a change. */
std::string
manifest(const Workload &w, std::uint64_t seed)
{
    const std::string desc = describeConfig(w);
    return JsonObject()
        .str("compiler", NEON_BENCH_COMPILER)
        .str("build_type", NEON_BENCH_BUILD_TYPE)
        .count("hardware_concurrency", std::thread::hardware_concurrency())
        .count("seed", seed)
        .str("config_hash", hex(fnv1a(desc.data(), desc.size())))
        .str("config", desc)
        .text();
}

/** One run's correctness evidence. */
std::string
runRecord(const std::string &role, const std::string &workload,
          const RunOutcome &r)
{
    return JsonObject()
        .str("role", role)
        .str("workload", workload)
        .str("fingerprint", hex(r.fingerprint))
        .count("arrivals", r.arrivals)
        .count("departures", r.departures)
        .count("audit_checks", r.auditChecks)
        .count("audit_violations", r.auditViolations)
        .text();
}

/** Accumulates metrics as {"value": v, "unit": u, ...extras}. */
class Metrics
{
  public:
    void
    add(const std::string &name, double v, const std::string &unit)
    {
        obj.raw(name, JsonObject().num("value", v).str("unit", unit).text());
    }

    /** Raw host-time samples; run.py pools them across processes. */
    void
    samples(const std::string &name, const std::vector<double> &v,
            const std::string &unit)
    {
        std::string list;
        for (double x : v)
            list += (list.empty() ? "" : ", ") + number(x);
        obj.raw(name, JsonObject().raw("samples", "[" + list + "]")
                          .str("unit", unit)
                          .text());
    }

    /** A per-call timing: p50, p99 and the sample count. */
    void
    percentiles(const std::string &name, const std::vector<double> &ns)
    {
        const LatencySummary s = summarizeLatencies(ns);
        add(name + ".p50", s.p50, "ns");
        add(name + ".p99", s.p99, "ns");
        add(name + ".samples", static_cast<double>(s.count), "count");
    }

    std::string text() const { return obj.text(); }

  private:
    JsonObject obj;
};

double
peakRssMiB()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** End-to-end pass: untraced default runs for @p seconds of host time. */
void
endToEndPass(const Workload &w, double seconds, JsonObject &out)
{
    std::vector<double> simRate, eventRate, setup, harvest;
    std::string runs;
    const double simS = toSec(w.horizon);
    const auto start = Clock::now();
    while (simRate.empty() || secondsSince(start) < seconds) {
        const RunOutcome r = runWorkload(w, RunOptions{});
        simRate.push_back(simS / r.runS);
        eventRate.push_back(static_cast<double>(r.events) / r.runS);
        setup.push_back(r.setupS);
        harvest.push_back(r.harvestS);
        // Set-up is a fraction of a millisecond: sample it more often.
        for (int i = 0; i < 4; ++i)
            setup.push_back(setupSeconds(w));
        runs += (runs.empty() ? "" : ", ") + runRecord("default", w.name, r);
    }
    Metrics m;
    m.samples("sim_s_per_wall_s", simRate, "sim_s/s");
    m.samples("events_per_s", eventRate, "events/s");
    m.samples("setup_s", setup, "s");
    m.samples("harvest_s", harvest, "s");
    m.add("peak_rss_mb", peakRssMiB(), "MiB");
    out.raw("runs", "[" + runs + "]").raw("metrics", m.text());
}

/** Per-layer pass: reruns, replay, and isolated layer drivers. */
void
layerPass(const Workload &w, std::uint64_t seed, double seconds,
          JsonObject &out)
{
    std::vector<std::string> runs;
    const auto record = [&runs](const std::string &role,
                                const std::string &workload,
                                const RunOutcome &r) {
        runs.push_back(runRecord(role, workload, r));
        return r;
    };

    std::vector<CallRecord> stream;
    RunOptions capture;
    capture.capture = &stream;
    const RunOutcome cap = record("capture", w.name, runWorkload(w, capture));

    // Two of each rerun; the faster one is the least disturbed.
    double wallDefault = 1e300, wallNoAudit = 1e300, wallBaseline = 1e300;
    std::vector<double> harvestNsPerSession;
    RunOptions noAudit;
    noAudit.audit = false;
    for (int i = 0; i < 2; ++i) {
        const RunOutcome d = record("default", w.name, runWorkload(w, {}));
        wallDefault = std::min(wallDefault, d.runS);
        harvestNsPerSession.push_back(d.harvestS * 1e9 /
                                      static_cast<double>(d.sessions));
        const RunOutcome a =
            record("audit_off", w.name, runWorkload(w, noAudit));
        wallNoAudit = std::min(wallNoAudit, a.runS);
    }
    RunOptions traced;
    traced.traceMask = obs::defaultTraceCategories;
    const RunOutcome tr = record("traced", w.name, runWorkload(w, traced));

    // serve_sharded's speedup is against the same traffic on the
    // serial core.
    const bool sharded = w.cfg.shards.parallel();
    if (sharded) {
        const Workload serial = makeWorkload("serve_steady", seed);
        for (int i = 0; i < 2; ++i) {
            const RunOutcome b =
                record("baseline", serial.name, runWorkload(serial, {}));
            wallBaseline = std::min(wallBaseline, b.runS);
        }
    }

    const AdmissionReplay rep = replayAdmission(w, stream);

    // The isolated drivers share the remaining time budget.
    const double iso = std::max(0.25, seconds / 16.0);
    const std::size_t placedPeak = std::min<std::size_t>(
        cap.peakLiveSessions,
        resolveSlotsPerDevice(w.cfg) * w.cfg.fleet.devices);
    std::vector<double> placeNs, retireNs;
    fleetPlaceRetireNs(w.cfg, placedPeak, iso, placeNs, retireNs);

    Metrics m;
    m.add("sim.events", static_cast<double>(cap.events), "count");
    m.add("sim.peak_live_events", static_cast<double>(cap.peakLiveEvents),
          "count");
    m.percentiles("sim.step_ns", eventQueueStepNs(cap.peakLiveEvents, iso));

    m.add("sim.shard.windows", static_cast<double>(cap.windows), "count");
    m.add("sim.shard.events_per_window",
          cap.windows ? static_cast<double>(cap.events) /
                  static_cast<double>(cap.windows)
                      : 0.0,
          "events");
    m.add("sim.shard.mailbox_messages",
          static_cast<double>(cap.mailboxMessages), "count");
    m.add("sim.shard.spawn_s", cap.spawnS, "s");
    m.add("sim.shard.speedup", sharded ? wallBaseline / wallDefault : 0.0,
          "x");

    m.add("gpu.requests", static_cast<double>(cap.gpuRequests), "count");
    m.add("gpu.busy_frac", cap.gpuBusyFrac, "ratio");
    m.add("sched.dfq_episodes", static_cast<double>(cap.dfqEpisodes),
          "count");
    m.add("sched.stack_events_per_s",
          summarizeLatencies(deviceStackEventsPerSec(iso)).p50, "events/s");

    const std::pair<const char *, obs::TraceCategory> traceLayers[] = {
        {"os", obs::TraceCategory::Kernel},
        {"sched", obs::TraceCategory::Sched},
        {"gpu", obs::TraceCategory::Device},
        {"fleet", obs::TraceCategory::Fleet},
        {"serve", obs::TraceCategory::Serve},
    };
    for (const auto &[layer, cat] : traceLayers) {
        m.add(std::string(layer) + ".trace_records",
              static_cast<double>(tr.trace.of(cat)), "count");
    }

    m.percentiles("fleet.place_ns", placeNs);
    m.percentiles("fleet.retire_ns", retireNs);
    m.add("fleet.migrations", static_cast<double>(cap.migrations), "count");

    m.percentiles("serve.admission.arrive_ns", rep.arriveNs);
    m.percentiles("serve.admission.depart_ns", rep.departNs);
    m.add("serve.admission.self_s", rep.selfS, "s");
    m.add("serve.admission.share", rep.selfS / wallDefault, "ratio");
    m.add("serve.admission.peak_pending",
          static_cast<double>(rep.peakPending), "count");
    const std::pair<const char *, std::size_t> depths[] = {
        {"d10", 10}, {"d1k", 1000}, {"d100k", 100000}};
    for (const auto &[label, depth] : depths) {
        m.percentiles(std::string("serve.admission.release_ns.") + label,
                      admissionReleaseNs(depth, iso));
    }

    m.percentiles("serve.frontdoor.decide_ns", rep.frontDoorNs);
    m.add("serve.frontdoor.sheds", static_cast<double>(cap.predictiveSheds),
          "count");
    m.add("serve.frontdoor.throttles", static_cast<double>(cap.throttled),
          "count");
    m.add("serve.preemptions", static_cast<double>(cap.preemptions),
          "count");

    m.percentiles("serve.engine.session_ns.shallow",
                  engineSessionNs(false, iso));
    m.percentiles("serve.engine.session_ns.deep", engineSessionNs(true, iso));

    m.add("fault.evictions", static_cast<double>(cap.evictions), "count");
    m.add("fault.failovers", static_cast<double>(cap.failovers), "count");

    m.add("obs.audit_checks", static_cast<double>(cap.auditChecks), "count");
    m.add("obs.audit_overhead", wallDefault / wallNoAudit - 1.0, "ratio");
    m.add("obs.trace_overhead", tr.runS / wallDefault - 1.0, "ratio");

    m.add("harness.harvest_ns_per_session",
          summarizeLatencies(harvestNsPerSession).p50, "ns");

    std::string runList;
    for (const std::string &r : runs)
        runList += (runList.empty() ? "" : ", ") + r;
    out.raw("runs", "[" + runList + "]")
        .raw("checks", JsonObject()
                           .flag("replay_order_matches", rep.orderMatches)
                           .flag("replay_throttles_match", rep.throttlesMatch)
                           .count("replay_admits", rep.admits)
                           .count("engine_admits", rep.engineAdmits)
                           .count("trace_dropped", tr.trace.dropped)
                           .text())
        .raw("metrics", m.text());
}

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload NAME --seed N --seconds S --trace 0|1\n";
    return 2;
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--workload" && hasValue) {
            workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && hasValue) {
            seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && hasValue) {
            trace = std::atoi(argv[++i]);
        } else {
            return usage(argv[0]);
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), workload) == names.end() ||
        seconds <= 0.0 || (trace != 0 && trace != 1))
        return usage(argv[0]);

    const Workload w = makeWorkload(workload, seed);
    JsonObject out;
    out.str("workload", workload)
        .count("seed", seed)
        .count("trace", static_cast<std::uint64_t>(trace))
        .raw("manifest", manifest(w, seed));
    if (trace == 0)
        endToEndPass(w, seconds, out);
    else
        layerPass(w, seed, seconds, out);
    std::cout << out.text() << std::endl;
    return 0;
}
