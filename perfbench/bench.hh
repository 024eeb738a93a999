/**
 * @file
 * Shared declarations of the serving benchmark (perfbench/).
 *
 * The benchmark drives the real simulator — ServeWorld over a 64-device
 * DFQ fleet — on fixed, seeded workloads and times it in host seconds.
 * workloads.cc builds the workloads and runs them end to end;
 * layers.cc times single layers from outside, either by replaying a
 * workload's captured call stream into a fresh component or by driving
 * the component alone at the workload's measured sizes; main.cc picks
 * the passes and prints one JSON result.
 */

#ifndef NEON_PERFBENCH_BENCH_HH
#define NEON_PERFBENCH_BENCH_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "neon/neon.hh"

namespace perfbench
{

using namespace neon;

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

/** 64-bit FNV-1a over @p bytes, continuing from @p h. */
std::uint64_t fnv1a(const void *bytes, std::size_t n,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/** One benchmark workload: a fully specified ServeWorld input. */
struct Workload
{
    std::string name;
    ExperimentConfig cfg;
    std::vector<ServeWorkloadSpec> specs;
    Tick horizon = 0; ///< simulated time advanced per run
};

/** Names of every workload, in run order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed (panics on an unknown name). */
Workload makeWorkload(const std::string &name, std::uint64_t seed);

/**
 * Canonical description of everything that shapes a workload's
 * simulated results except the seed and the worker-thread count
 * (which never changes results); its hash is the manifest's config id.
 */
std::string describeConfig(const Workload &w);

/** One captured control-plane call boundary, in engine order. */
struct CallRecord
{
    enum class Kind : std::uint8_t
    {
        Session,    ///< a ServeEngine SessionEvent
        DeviceDown, ///< FleetManager::onDeviceDown fired
        DeviceUp,   ///< FleetManager::onDeviceUp fired
    };
    Kind kind = Kind::Session;
    SessionEvent ev; ///< ev.when is set for every kind
};

/** Trace records counted per obs::TraceCategory bit. */
struct TraceCounts
{
    std::array<std::uint64_t, 8> byCategory{};
    std::uint64_t dropped = 0;

    std::uint64_t
    of(obs::TraceCategory c) const
    {
        return byCategory[static_cast<std::size_t>(
            __builtin_ctz(static_cast<std::uint32_t>(c)))];
    }
};

/** How one end-to-end run is instrumented. */
struct RunOptions
{
    bool audit = true;           ///< the auditor, on as users run it
    std::uint32_t traceMask = 0; ///< nonzero: the traced pass
    std::vector<CallRecord> *capture = nullptr; ///< replay stream sink
};

/** Timings, result fingerprint and layer statistics of one run. */
struct RunOutcome
{
    double setupS = 0.0;   ///< construction + start(), incl. thread spawn
    double spawnS = 0.0;   ///< shard worker spawn alone (0 when serial)
    double runS = 0.0;     ///< the runFor interval only
    double harvestS = 0.0; ///< ServeWorld::results()

    std::uint64_t events = 0;
    std::uint64_t fingerprint = 0;
    std::size_t sessions = 0; ///< session records harvested

    std::uint64_t arrivals = 0;
    std::uint64_t departures = 0;
    std::uint64_t auditChecks = 0;
    std::uint64_t auditViolations = 0;

    std::size_t peakLiveEvents = 0; ///< max over control + shard queues
    std::uint64_t windows = 0;
    std::uint64_t mailboxMessages = 0;

    std::uint64_t gpuRequests = 0;
    double gpuBusyFrac = 0.0;
    std::uint64_t dfqEpisodes = 0;

    std::uint64_t migrations = 0;
    std::uint64_t evictions = 0;
    std::uint64_t failovers = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t throttled = 0;
    std::uint64_t predictiveSheds = 0;
    std::size_t peakLiveSessions = 0;

    TraceCounts trace; ///< traced pass only
};

/** Seconds to construct and start a ServeWorld for @p w (not run). */
double setupSeconds(const Workload &w);

/** Build, start, run and harvest one ServeWorld for @p w. */
RunOutcome runWorkload(const Workload &w, const RunOptions &opt);

// ----------------------------------------------------------------------
// Layer drivers (layers.cc)
// ----------------------------------------------------------------------

/** Host time of each AdmissionController call in a replayed stream. */
struct AdmissionReplay
{
    std::vector<double> arriveNs;    ///< arrive(), incl. retry re-entry
    std::vector<double> departNs;    ///< depart() on departure/kill/evict
    std::vector<double> frontDoorNs; ///< allow() (+ scan, decide())
    double selfS = 0.0;              ///< all of the above and the rest
    std::size_t peakPending = 0;
    std::size_t admits = 0;          ///< releases the replay produced
    std::size_t engineAdmits = 0;    ///< Admit events the engine recorded
    bool orderMatches = false;       ///< same sessions, same order
    bool throttlesMatch = false;     ///< allow() agreed on every arrival
};

/**
 * Replay @p stream (captured on @p w's run) into a fresh
 * AdmissionController, TenantRateLimiter and SloAdmission built from
 * @p w's config, timing each call and checking that the controller
 * releases sessions in the order the engine admitted them.
 */
AdmissionReplay replayAdmission(const Workload &w,
                                const std::vector<CallRecord> &stream);

/** Per-op ns of EventQueue schedule+step at a constant live depth. */
std::vector<double> eventQueueStepNs(std::size_t depth, double budgetS);

/** Events/s of a single-device World: device + kernel + DFQ, 2 tasks. */
std::vector<double> deviceStackEventsPerSec(double budgetS);

/**
 * ns per FleetManager::createTaskOn / retireTask on @p cfg's fleet,
 * with @p live tasks placed.
 */
void fleetPlaceRetireNs(const ExperimentConfig &cfg, std::size_t live,
                        double budgetS, std::vector<double> &placeNs,
                        std::vector<double> &retireNs);

/** ns per AdmissionController release at a fixed queue depth. */
std::vector<double> admissionReleaseNs(std::size_t depth, double budgetS);

/**
 * Host ns per served session of a ServeEngine + FleetManager with a
 * body that does no device work, at an empty (@p deep false) or a
 * ~5k-deep admission queue.
 */
std::vector<double> engineSessionNs(bool deep, double budgetS);

} // namespace perfbench

#endif // NEON_PERFBENCH_BENCH_HH
