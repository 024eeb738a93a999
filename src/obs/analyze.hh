/**
 * @file
 * Analysis plane over the serving layer: per-session phase attribution
 * and windowed fairness/goodput/utilization timelines.
 *
 * Phase attribution decomposes every session's in-system time into an
 * exact integer-tick partition — admission-queue wait, on-device
 * service, migration gaps, and fault stall/backoff — driven by the
 * engine's lifecycle SessionEvents (exact by construction; the trace
 * ring can drop under wrap, listener delivery cannot). The same events
 * can be replayed from an exported trace (sessionEventsFromJsonl /
 * bench_trace_analyze), so post-hoc analysis of a recorded run prints
 * the same report.
 *
 * The windowed analyzer samples the run on a virtual-time grid: per
 * window it reports the Jain fairness index over speed-normalized
 * session service rates (the same statistic ServeRunResult reports for
 * the whole run — a single whole-run window reproduces it bit-exactly),
 * goodput against the ServeConfig SLO target, per-device utilization
 * and occupancy, and queue depth. Series export as CSV next to the
 * counter tracks and are as deterministic as the run itself.
 */

#ifndef NEON_OBS_ANALYZE_HH
#define NEON_OBS_ANALYZE_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "serve/serve_engine.hh"
#include "sim/periodic.hh"

namespace neon
{

class FleetManager;

namespace obs
{

/** Per-run analysis configuration (ObserveConfig::analyze). */
struct AnalyzeConfig
{
    /** Track per-session phase attribution + tail report. */
    bool phases = false;

    /** Timeline window in virtual time (0 = no windowed series). */
    Tick window = 0;

    /** Windowed timeline CSV output path (empty = don't write). */
    std::string timelineCsvPath;

    bool enabled() const { return phases || window > 0; }
};

/** Exact integer-tick partition of one session's in-system time. */
struct PhaseBreakdown
{
    Tick queue = 0;     ///< admission-queue wait (arrival/retry -> placed)
    Tick service = 0;   ///< placed on a live device
    Tick migration = 0; ///< between incarnations of a migration (0 today:
                        ///< migration is checkpoint/restart-instant)
    Tick stall = 0;     ///< fault backoff between eviction and re-queue

    Tick total() const { return queue + service + migration + stall; }
};

/** One session's attributed lifecycle. */
struct SessionPhases
{
    std::uint64_t session = 0;
    std::size_t cls = 0;
    Tick arrived = 0;
    Tick admitted = -1; ///< first placement (-1 = never admitted)
    Tick ended = 0;     ///< depart/kill/shed time, or the horizon if open
    bool departed = false;
    bool killed = false;
    bool shed = false;
    bool throttled = false; ///< rejected by the token bucket on arrival
    bool open = false; ///< still in-system at finalize

    PhaseBreakdown phases;

    /** Arrival-to-end in-system time; phases partition this exactly. */
    Tick inSystem() const { return ended - arrived; }
};

/**
 * Replays SessionEvents into per-session phase breakdowns. The state
 * machine mirrors the engine's lifecycle: Queued (arrival or retry
 * re-queue), OnDevice (admit/failover/migrate), Backoff (evicted), and
 * each transition charges the elapsed interval to the phase of the
 * state being left — so the four phases always sum to the in-system
 * time, in exact integer ticks.
 */
class PhaseTracker
{
  public:
    void onEvent(const SessionEvent &e);

    /** Charge open sessions up to @p horizon (idempotent per session). */
    void finalize(Tick horizon);

    const std::vector<SessionPhases> &sessions() const { return all; }

  private:
    enum class State : std::uint8_t
    {
        Queued,
        OnDevice,
        Backoff,
        Done,
    };

    struct Live
    {
        State state = State::Done;
        Tick since = 0;
    };

    void charge(std::size_t idx, Tick now);

    std::vector<SessionPhases> all; ///< by session id (dense)
    std::vector<Live> live;         ///< parallel to `all`
};

/** Aggregate phase shares of a session group (fractions of in-system). */
struct PhaseShares
{
    double queue = 0.0;
    double service = 0.0;
    double migration = 0.0;
    double stall = 0.0;
};

/** Tail attribution for one group (overall / per tenant / per class). */
struct TailGroup
{
    std::string key;
    std::uint64_t sessions = 0;
    double meanMs = 0.0; ///< mean in-system time
    double p95Ms = 0.0;  ///< in-system time percentiles
    double p99Ms = 0.0;
    PhaseShares meanShare; ///< aggregate shares over all sessions
    PhaseShares tailShare; ///< aggregate shares over the >= p95 tail
    std::string dominantPhase; ///< largest tail share
};

/** Which phase dominates the tail, per tenant and per demand class. */
struct PhaseReport
{
    TailGroup overall;
    std::vector<TailGroup> byTenant;
    std::vector<TailGroup> byClass;
};

/**
 * Roll sessions up into the tail-attribution report. @p tenant_of and
 * @p class_of label each session's grouping keys (the in-process
 * analyzer resolves them through the engine's workload classes; the
 * trace CLI falls back to "class<N>").
 */
PhaseReport buildPhaseReport(
    const std::vector<SessionPhases> &sessions,
    const std::function<std::string(const SessionPhases &)> &tenant_of,
    const std::function<std::string(const SessionPhases &)> &class_of);

/** Human-readable rendering of the report (CLI, examples). */
std::string formatPhaseReport(const PhaseReport &report);

/** One window of the analysis timeline. */
struct WindowStats
{
    Tick start = 0;
    Tick end = 0;

    std::uint64_t arrivals = 0;
    std::uint64_t departures = 0; ///< clean departures in the window
    std::uint64_t kills = 0;
    std::uint64_t sheds = 0;
    std::uint64_t throttled = 0; ///< token-bucket rejections
    std::uint64_t preempts = 0;  ///< batch incarnations displaced

    std::size_t queueDepth = 0;   ///< admission queue at window close
    std::size_t liveSessions = 0; ///< in-system at window close

    /**
     * Jain index over per-session speed-normalized service rates
     * accrued within the window (busy delta x device speed / overlap
     * with the window). A single whole-run window equals
     * ServeRunResult::serviceFairness bit-for-bit.
     */
    double fairness = 1.0;

    /** Clean departures in the window meeting the SLO sojourn target. */
    std::uint64_t goodputEligible = 0;
    std::uint64_t goodputMet = 0;
    double goodput = 1.0;

    std::vector<double> deviceUtil;      ///< busy delta / window, per device
    std::vector<std::size_t> occupancy;  ///< live tasks at close, per device
};

/**
 * The in-process analysis bundle for one serving run: listens to the
 * engine's SessionEvents (registered at construction, before start()),
 * closes timeline windows on the control queue's virtual-time grid —
 * in sharded runs these run at window barriers with workers parked,
 * so reading fleet/engine state is safe and deterministic — and
 * writes the configured series outputs.
 */
class Analyzer
{
  public:
    Analyzer(EventQueue &eq, FleetManager &fleet, ServeEngine &engine,
             const AnalyzeConfig &cfg);

    Analyzer(const Analyzer &) = delete;
    Analyzer &operator=(const Analyzer &) = delete;

    /** Arm the window cadence (no-op when cfg.window == 0). */
    void start() { boundaries.start(); }

    /**
     * Stop the window cadence, close the tracker at the current
     * virtual time and flush the final (possibly partial) window.
     * Idempotent.
     */
    void finalize();

    const AnalyzeConfig &config() const { return cfg; }
    const std::vector<SessionPhases> &sessionPhases() const;
    const std::vector<WindowStats> &timeline() const { return windows; }

    /** Tail attribution with tenant/class labels from the engine. */
    PhaseReport phaseReport() const;

    /** Write timelineCsvPath if configured. */
    void writeOutputs() const;

    /** Render the timeline as CSV (deterministic; tests compare runs). */
    std::string timelineCsv() const;

  private:
    void onEvent(const SessionEvent &e);
    void closeWindow(Tick ws, Tick we);

    EventQueue &eq;
    FleetManager &fleet;
    ServeEngine &engine;
    AnalyzeConfig cfg;
    Periodic boundaries; ///< closes a window every cfg.window

    PhaseTracker tracker;
    std::vector<WindowStats> windows;
    WindowStats accum;              ///< goodput counts for the open window
    SessionStepTally tallyAtOpen{}; ///< engine step tally at window open
    Tick windowStart = 0;
    std::vector<Tick> busyPrev;     ///< busy at window open, by session id
    std::vector<Tick> devBusyPrev;
    bool finalized = false;
};

/**
 * Rebuild lifecycle SessionEvents from a raw-record JSONL export
 * (ObserveConfig::recordsJsonlPath, Serve + Fault categories): the
 * offline path behind bench_trace_analyze. Each record maps back
 * through the engine's step table (sessionSteps), and every event gets
 * its session's class from the arrival's record, so when the capture
 * did not drop, the result equals the stream the engine's listeners
 * saw. Lines that are not session steps are skipped. If @p lines is
 * given, it receives the number of lines read.
 */
std::vector<SessionEvent>
sessionEventsFromJsonl(std::istream &in, std::uint64_t *lines = nullptr);

} // namespace obs
} // namespace neon

#endif // NEON_OBS_ANALYZE_HH
