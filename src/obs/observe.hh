/**
 * @file
 * Harness-facing observability bundle.
 *
 * ObserveConfig rides inside ExperimentConfig so every runner (World,
 * ServeWorld, examples, benches) can switch tracing and metric
 * sampling on with one config block. Observer owns the trace
 * ring and metrics registry for one run, installs itself as the
 * process trace sink for the run's lifetime (RAII — destruction
 * deactivates every trace point again), and knows how to register the
 * standard fleet/serve probes and write the configured outputs.
 */

#ifndef NEON_OBS_OBSERVE_HH
#define NEON_OBS_OBSERVE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/analyze.hh"
#include "obs/audit.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/periodic.hh"

namespace neon
{

class FleetManager;
class ServeEngine;
class ShardedEngine;

namespace obs
{

/** Per-run observability configuration (ExperimentConfig::observe). */
struct ObserveConfig
{
    /** Enabled trace categories (TraceCategory bits; 0 = no tracing). */
    std::uint32_t categories = 0;

    /** Trace ring capacity, in records (rounded up to a power of 2). */
    std::size_t bufferCapacity = std::size_t(1) << 16;

    /** Metric sampling cadence in virtual time (0 = no sampling). */
    Tick samplePeriod = 0;

    /** Chrome trace JSON output path (empty = don't write). */
    std::string tracePath;

    /** Counter time-series CSV output path (empty = don't write). */
    std::string countersCsvPath;

    /**
     * Raw trace records as JSON-lines output path (empty = don't
     * write). One object per retained record, in merged virtual-time
     * order — the input format of bench_trace_analyze.
     */
    std::string recordsJsonlPath;

    /** Analysis plane: phase attribution + windowed timelines. */
    AnalyzeConfig analyze;

    /** Invariant auditor (on by default; checks are read-only). */
    AuditConfig audit;

    /** Anything for the trace/metrics capture plane to do? The
     * analyzer and auditor are gated separately (analyze.enabled(),
     * audit.enabled) — they work off engine state, not the ring. */
    bool
    enabled() const
    {
        return categories != 0 || samplePeriod > 0;
    }
};

/**
 * One run's observability state: trace ring, metrics registry and the
 * cadence that samples it every samplePeriod, and outputs.
 */
class Observer
{
  public:
    /** Installs the trace sink immediately (clocked by @p eq). */
    Observer(EventQueue &eq, const ObserveConfig &cfg);

    /** Uninstalls the trace sink. */
    ~Observer();

    Observer(const Observer &) = delete;
    Observer &operator=(const Observer &) = delete;

    TraceRecorder &recorder() { return ring; }

    /** Shard @p s's ring (attachShards; parallel runs only). */
    const TraceRecorder &
    shardRecorder(std::size_t s) const
    {
        return *shardRings.at(s);
    }

    MetricsRegistry &metrics() { return registry; }
    const ObserveConfig &config() const { return cfg; }

    /**
     * Register the standard per-device probes: devN.queue_depth (live
     * tasks), devN.norm_vtime_ms (speed-normalized DFQ virtual time),
     * fleet.vtime_lag_ms (max-min normalized spread), and eq.executed.
     */
    void attachFleet(FleetManager &fleet);

    /**
     * Register serving-layer probes: serve.queue_len (admission queue)
     * and serve.live_sessions.
     */
    void attachServe(ServeEngine &engine);

    /**
     * Give every shard of a parallel run its own trace ring (same
     * capacity as the main ring), so each shard records lock-free;
     * writeOutputs() merges all rings by virtual time. No-op for a
     * serial engine.
     */
    void attachShards(ShardedEngine &engine);

    /** Begin the sampling cadence (no-op when samplePeriod == 0). */
    void start() { sampler.start(); }

    /** Write the configured trace JSON / counters CSV outputs. */
    void writeOutputs();

    /** One-line capture summary ("N records, M dropped, ..."). */
    std::string summary() const;

    /** Ring-wrap drops across all rings (0 = the capture is exact). */
    std::uint64_t droppedRecords() const;

    /** All rings (main + shards) merged into virtual-time order. */
    std::vector<TraceRecord> mergedRecords() const;

  private:
    EventQueue &eq;
    ObserveConfig cfg;
    TraceRecorder ring;
    MetricsRegistry registry;
    Periodic sampler;

    /** Per-shard rings (attachShards; parallel runs only). */
    std::vector<std::unique_ptr<TraceRecorder>> shardRings;
    ShardedEngine *shardEngine = nullptr;
};

} // namespace obs
} // namespace neon

#endif // NEON_OBS_OBSERVE_HH
