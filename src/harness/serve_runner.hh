/**
 * @file
 * Harness entry points for open-system serving runs.
 *
 * ServeWorld adds a ServeEngine (cfg.serve) to the closed World's
 * fleet (cfg.fleet), fed by ServeWorkloadSpecs — each a workload
 * template with an arrival process and a lifetime distribution.
 * ServeRunner drives a whole run and reports SLO percentiles (queueing
 * delay, sojourn, slowdown vs. the class's isolated baseline)
 * alongside fleet-level fairness and throughput.
 *
 * Unlike the closed runner there is no warmup/measurement split: an
 * open run is measured whole, from the first arrival to the horizon,
 * because the transient (queue build-up and drain) is the object of
 * study rather than noise.
 */

#ifndef NEON_HARNESS_SERVE_RUNNER_HH
#define NEON_HARNESS_SERVE_RUNNER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/availability.hh"
#include "fault/injector.hh"
#include "harness/experiment.hh"
#include "metrics/slo.hh"
#include "serve/serve_engine.hh"

namespace neon
{

/** One serving workload class: template + arrivals + lifetimes. */
struct ServeWorkloadSpec
{
    WorkloadSpec workload;
    ArrivalSpec arrivals;
    LifetimeSpec lifetime;

    /** Fair-share principal; defaults to the workload label. */
    std::string tenant;

    /** QoS class (ordered/preempted only when cfg.serve.qos is on). */
    QosClass qos = QosClass::Batch;

    /** Queue-delay budget for shedding and goodput (0 = none). */
    Tick queueBudget = 0;

    ServeWorkloadSpec() = default;
    ServeWorkloadSpec(WorkloadSpec w, ArrivalSpec a, LifetimeSpec l,
                      std::string tenant = "")
        : workload(std::move(w)), arrivals(std::move(a)), lifetime(l),
          tenant(std::move(tenant))
    {
    }
};

/** Whole-run outcome of a serving experiment. */
struct ServeRunResult
{
    std::vector<ServeSessionResult> sessions;

    std::uint64_t arrivals = 0;
    std::uint64_t departures = 0;
    std::uint64_t kills = 0;
    std::uint64_t migrations = 0;
    std::uint64_t evictions = 0;     ///< session interruptions
    std::uint64_t failovers = 0;     ///< successful resumes
    std::uint64_t shedSessions = 0;  ///< all sheds (front door + retry)
    std::uint64_t predictiveSheds = 0; ///< SLO front-door sheds
    std::uint64_t throttledSessions = 0; ///< token-bucket rejections
    std::uint64_t preemptions = 0;   ///< batch incarnations displaced

    /**
     * Of the sessions interrupted by a device failure, the fraction
     * that resumed after every interruption and were not later shed or
     * killed. 1.0 when nothing was interrupted.
     */
    double recoveryRate = 1.0;
    std::size_t peakLiveSessions = 0; ///< in-system (queued + placed)
    std::size_t peakQueueDepth = 0;
    std::size_t queuedAtEnd = 0;
    std::size_t capacity = 0; ///< admission slots fleet-wide

    Tick elapsed = 0;
    std::vector<Tick> deviceBusy;
    std::uint64_t requests = 0;
    double throughputRps = 0.0;

    /**
     * Jain index over per-session speed-normalized service rates
     * (busy x device speed / residency), admitted un-killed sessions.
     * The serving analogue of FleetFairnessReport::taskFairness.
     */
    double serviceFairness = 1.0;

    /** Jain index over per-device busy time. */
    double deviceBalance = 1.0;

    SloReport slo;

    /** Injected vs. detected vs. recovered (fault plane enabled). */
    AvailabilityReport fault;

    /** Observer capture summary (empty when observe was disabled). */
    std::string observeSummary;

    /** Trace-ring drops across all rings (0 = exact capture / no trace). */
    std::uint64_t traceDrops = 0;

    /** Invariant-audit outcome (checks == 0 when the auditor was off). */
    obs::AuditReport audit;

    /** Per-session phase attribution (observe.analyze.phases only). */
    std::vector<obs::SessionPhases> sessionPhases;

    /** Tail attribution rolled up overall / per tenant / per class. */
    obs::PhaseReport phases;

    /** Windowed fairness/goodput/util series (observe.analyze.window). */
    std::vector<obs::WindowStats> timeline;

    const ServeSessionResult &byLabel(const std::string &label) const;
};

/**
 * An assembled open-system world (tests poke at internals): the
 * closed World's fleet, shards, observer, watchdog and auditor plus a
 * ServeEngine fed by the serving classes, the analysis plane and the
 * fault injector. Sessions come from arrivals, not World::spawn().
 */
class ServeWorld : public World
{
  public:
    ServeWorld(const ExperimentConfig &cfg,
               const std::vector<ServeWorkloadSpec> &specs);
    ~ServeWorld();

    /** Start fleet kernels, arrivals, and the global clock. */
    void start();

    /** Harvest the whole run (slowdown SLO left to ServeRunner). */
    ServeRunResult results();

    ServeEngine engine;

    /** Analysis plane (cfg.observe.analyze.enabled() only, else null). */
    std::unique_ptr<obs::Analyzer> analyzer;

    /** Fault injector (cfg.fault.plan.any() only, else null). */
    std::unique_ptr<FaultInjector> injector;
};

/**
 * Resolve the per-device session-slot bound: the configured value, or
 * the Section 6.3 user bound (channel pool / per-task channel limit).
 */
std::size_t resolveSlotsPerDevice(const ExperimentConfig &cfg);

/** Convenience driver for serving runs (mirrors ExperimentRunner). */
class ServeRunner
{
  public:
    explicit ServeRunner(ExperimentConfig cfg) : cfg(std::move(cfg)) {}

    /**
     * Run the serving classes for cfg.measure simulated time (from
     * t=0; no warmup) and report. @p with_slowdowns adds the per-class
     * isolated-baseline runs needed for the slowdown SLO.
     */
    ServeRunResult run(const std::vector<ServeWorkloadSpec> &specs,
                       bool with_slowdowns = true) const;

    const ExperimentConfig &config() const { return cfg; }
    ExperimentConfig &config() { return cfg; }

  private:
    ExperimentConfig cfg;
};

} // namespace neon

#endif // NEON_HARNESS_SERVE_RUNNER_HH
