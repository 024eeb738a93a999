#include "obs/observe.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "fleet/fleet_manager.hh"
#include "obs/chrome_trace.hh"
#include "serve/serve_engine.hh"
#include "sim/logging.hh"
#include "sim/sharded_engine.hh"

namespace neon
{
namespace obs
{

Observer::Observer(EventQueue &q, const ObserveConfig &c)
    : eq(q), cfg(c), ring(c.bufferCapacity),
      sampler(q, c.samplePeriod, [this] { registry.sampleNow(eq); })
{
    setTraceSink(&ring, cfg.categories, &eq);
}

Observer::~Observer()
{
    // Detach the shard rings before they are destroyed; the engine
    // outlives the Observer (world member order) but must not point
    // workers at freed memory.
    if (shardEngine)
        shardEngine->clearShardTraceSinks();
    // Another Observer may have taken over the sink (nested worlds in
    // slowdown-baseline runs); only deactivate if it is still ours.
    if (traceSink() == &ring)
        setTraceSink(nullptr, 0);
}

void
Observer::attachFleet(FleetManager &fleet)
{
    registry.probe("eq.executed", [this] {
        return static_cast<double>(eq.executed());
    });
    // The probes hold the fleet's dense per-device arrays by
    // reference: they are never resized after the stacks are built.
    const std::vector<Tick> &vtimes = fleet.publishedVtimes();
    const std::vector<double> &speeds = fleet.speedFactors();
    const std::vector<std::size_t> &live = fleet.liveTaskCounts();
    for (std::size_t i = 0; i < fleet.deviceCount(); ++i) {
        const std::string dev = "dev" + std::to_string(i);
        registry.probe(dev + ".queue_depth", [&live, i] {
            return static_cast<double>(live[i]);
        });
        if (vtimes[i] != FleetManager::noVtime) {
            registry.probe(dev + ".norm_vtime_ms", [&vtimes, &speeds, i] {
                return toMsec(vtimes[i]) * speeds[i];
            });
        }
    }
    registry.probe("fleet.vtime_lag_ms", [&vtimes, &speeds] {
        double lo = 0.0, hi = 0.0;
        bool any = false;
        for (std::size_t i = 0; i < vtimes.size(); ++i) {
            if (vtimes[i] == FleetManager::noVtime)
                continue;
            const double norm = toMsec(vtimes[i]) * speeds[i];
            if (!any) {
                lo = hi = norm;
                any = true;
            } else {
                lo = std::min(lo, norm);
                hi = std::max(hi, norm);
            }
        }
        return any ? hi - lo : 0.0;
    });
}

void
Observer::attachServe(ServeEngine &engine)
{
    registry.probe("serve.queue_len", [&engine] {
        return static_cast<double>(engine.admissionState().pendingCount());
    });
    registry.probe("serve.live_sessions", [&engine] {
        return static_cast<double>(engine.liveSessions());
    });
}

void
Observer::attachShards(ShardedEngine &engine)
{
    if (!engine.parallel())
        return;
    shardEngine = &engine;
    shardRings.reserve(engine.shardCount());
    for (std::size_t s = 0; s < engine.shardCount(); ++s) {
        shardRings.push_back(
            std::make_unique<TraceRecorder>(cfg.bufferCapacity));
        engine.setShardTraceSink(s, shardRings.back().get());
    }
}

std::vector<TraceRecord>
Observer::mergedRecords() const
{
    std::vector<TraceRecord> all = ring.snapshot();
    for (const auto &r : shardRings) {
        const std::vector<TraceRecord> s = r->snapshot();
        all.insert(all.end(), s.begin(), s.end());
    }
    // Stable by virtual time: ties keep ring order (main ring first,
    // then shards in index order), so the merged timeline is as
    // deterministic as the run that produced it.
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceRecord &a, const TraceRecord &b) {
                         return a.when < b.when;
                     });
    return all;
}

std::uint64_t
Observer::droppedRecords() const
{
    std::uint64_t dropped = ring.dropped();
    for (const auto &r : shardRings)
        dropped += r->dropped();
    return dropped;
}

namespace
{

/** One record as a JSON object (bench_trace_analyze input line). */
void
printRecordJson(std::ostream &os, const TraceRecord &r)
{
    os << "{\"when\": " << r.when << ", \"name\": \""
       << traceNameOf(r.name) << "\", \"cat\": \""
       << traceCategoryName(r.category()) << "\", \"kind\": "
       << static_cast<int>(r.kind) << ", \"device\": " << r.device
       << ", \"pid\": " << r.pid << ", \"session\": " << r.session
       << ", \"arg0\": " << r.arg0 << ", \"arg1\": " << r.arg1 << "}\n";
}

} // namespace

void
Observer::writeOutputs()
{
    // The trace JSON and the JSONL export the same merged timeline.
    std::vector<TraceRecord> records;
    if (!cfg.tracePath.empty() || !cfg.recordsJsonlPath.empty())
        records = mergedRecords();
    if (!cfg.tracePath.empty()) {
        std::ofstream os(cfg.tracePath);
        if (!os)
            fatal("cannot open trace output '", cfg.tracePath, "'");
        writeChromeTrace(os, buildChromeEvents(records));
    }
    if (!cfg.countersCsvPath.empty()) {
        std::ofstream os(cfg.countersCsvPath);
        if (!os)
            fatal("cannot open counters output '", cfg.countersCsvPath, "'");
        registry.printCsv(os);
    }
    if (!cfg.recordsJsonlPath.empty()) {
        std::ofstream os(cfg.recordsJsonlPath);
        if (!os)
            fatal("cannot open records output '", cfg.recordsJsonlPath,
                  "'");
        for (const TraceRecord &r : records)
            printRecordJson(os, r);
    }
}

std::string
Observer::summary() const
{
    std::uint64_t written = ring.written();
    std::uint64_t dropped = ring.dropped();
    std::size_t retained = ring.size();
    for (const auto &r : shardRings) {
        written += r->written();
        dropped += r->dropped();
        retained += r->size();
    }
    std::ostringstream os;
    os << written << " trace records captured, " << retained
       << " retained, " << dropped << " dropped";
    if (!shardRings.empty())
        os << " (across " << shardRings.size() + 1 << " rings)";
    if (!registry.series().empty()) {
        std::size_t samples = 0;
        for (const auto &s : registry.series())
            samples = std::max(samples, s.samples.size());
        os << "; " << registry.series().size() << " metrics x " << samples
           << " samples";
    }
    return os.str();
}

} // namespace obs
} // namespace neon
