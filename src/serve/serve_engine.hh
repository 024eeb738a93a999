/**
 * @file
 * ServeEngine: the open-system serving loop over a device fleet.
 *
 * Sessions of configured workload classes arrive by their class's
 * ArrivalSpec, pass through the AdmissionController (queueing while
 * the fleet is at channel capacity), are placed — via the fleet's
 * placement policy, or steered by the GlobalVirtualClock toward the
 * most-lagging device — run for their sampled lifetime, possibly
 * migrate when the global clock finds a device lagging the fleet, and
 * depart, releasing their slot to the next queued request.
 *
 * A session is the stable identity across incarnations: each
 * placement or migration creates a fresh Task (new pid on the target
 * device's kernel) and restarts the workload body, while the session
 * accumulates usage, rounds, and per-device history across all of
 * them — so departed and migrated work stays fully accounted.
 *
 * Sharded runs: the whole engine lives on the coordinator's control
 * queue. Arrivals, admission, global-clock ticks, migration, and
 * departures execute at their exact timestamps during the window
 * barrier (shard workers parked), and anything they schedule into a
 * device's shard — a new incarnation's first doorbell — lands at the
 * next window open. Kill notifications travel the other way through
 * the shard mailboxes (FleetManager::handleTaskKilled), so the engine
 * never observes a shard mid-flight and N-shard serving runs stay
 * bit-identical across repeats and worker-thread counts.
 */

#ifndef NEON_SERVE_SERVE_ENGINE_HH
#define NEON_SERVE_SERVE_ENGINE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "fleet/fleet_manager.hh"
#include "obs/trace.hh"
#include "serve/admission.hh"
#include "serve/global_clock.hh"
#include "serve/rate_limit.hh"
#include "serve/serve_config.hh"
#include "serve/slo_admission.hh"
#include "sim/random.hh"
#include "workload/arrival.hh"

namespace neon
{

/** One open-system workload class (a tenant's traffic). */
struct ServeClass
{
    std::string label;  ///< session labels become "label#N"
    std::string tenant; ///< fair-share principal (defaults to label)
    ArrivalSpec arrivals;
    LifetimeSpec lifetime;
    std::string affinityKey; ///< sticky placement (empty = label)
    double demand = 1.0;     ///< expected-demand hint

    /** QoS class; only ordered/preempted when ServeConfig::qos is on. */
    QosClass qos = QosClass::Batch;

    /**
     * Per-class queue-delay budget for predictive shedding and the
     * release deadline (0 = inherit ServeConfig::slo.queueTarget).
     */
    Tick queueBudget = 0;

    /** Builds a (re)startable workload body for one incarnation. */
    std::function<Co(Task &, std::uint64_t)> makeBody;
};

/** Outcome of one session: the serving analogue of TaskResult. */
struct ServeSessionResult
{
    std::string label;
    std::string tenant;
    std::size_t cls = 0; ///< workload class index

    Tick arrived = 0;
    Tick admitted = -1;  ///< -1 while queued
    Tick departed = -1;  ///< -1 while live
    bool killed = false; ///< ended by per-device protection
    bool shed = false;   ///< dropped: retry budget spent or front door
    bool shedPredicted = false; ///< shed by SLO prediction at arrival
    bool throttled = false;     ///< rejected by the token bucket

    int evictions = 0;   ///< times a device failure interrupted it
    int failovers = 0;   ///< times it resumed on the (shrunken) fleet
    int retries = 0;     ///< backoff attempts consumed
    int preemptions = 0; ///< times an interactive admit took its slot

    // Accumulated across completed incarnations (folded as each one
    // ends); sessionResults() adds the open incarnation on top.
    Tick busy = 0;               ///< ground-truth device time
    std::uint64_t requests = 0;  ///< completed device requests
    double roundUsSum = 0.0;     ///< sum of round durations (us)
    std::uint64_t rounds = 0;    ///< completed rounds
    int migrations = 0;
    std::vector<std::size_t> devices; ///< device of each incarnation

    bool wasAdmitted() const { return admitted >= 0; }
    bool hasDeparted() const { return departed >= 0; }

    double
    meanRoundUs() const
    {
        return rounds > 0 ? roundUsSum / static_cast<double>(rounds) : 0.0;
    }
};

/**
 * Lifecycle record of one session (stable across incarnations): its
 * outcome plus the engine's state for the open incarnation.
 */
struct SessionRecord : ServeSessionResult
{
    std::uint64_t id = 0;
    bool done = false; ///< departed (or killed, shed, or throttled)

    Task *task = nullptr;
    std::size_t device = 0;
    std::size_t placedSlot = 0; ///< index in the engine's placed table
    int incarnation = 0;
    EventId departureEv = invalidEventId;
    EventId retryEv = invalidEventId;
    Tick departAt = -1; ///< scheduled departure time (-1 = none)

    /**
     * Lifetime left when a device failure interrupted the session;
     * the departure clock stops during backoff/queueing and resumes
     * from here on re-admission. -1 = no frozen remainder.
     */
    Tick remainingLifetime = -1;

    /**
     * Displaced by a preemption and not yet re-admitted: the next
     * admission resumes the frozen remainder instead of sampling a
     * fresh lifetime (and is not a fault failover).
     */
    bool preemptResume = false;
};

/**
 * One serve-layer lifecycle transition, delivered synchronously to
 * registered listeners (the analysis plane's phase tracker). Exact by
 * construction — unlike the trace ring, listener delivery never drops
 * — and read-only: listeners observe, they cannot steer.
 */
struct SessionEvent
{
    enum class Kind : std::uint8_t
    {
        Arrive,       ///< session entered the system (queued)
        Admit,        ///< placed on a device (first time or failover)
        Migrate,      ///< moved to another device by the global clock
        Evict,        ///< interrupted by device failure (backoff begins)
        RetryEnqueue, ///< backoff expired, re-entered the admission queue
        Depart,       ///< completed its lifetime and left
        Kill,         ///< ended by per-device protection
        Shed,         ///< dropped: retry budget spent or SLO front door
        Throttle,     ///< rejected by the token bucket on arrival
        Preempt,      ///< batch incarnation displaced by an interactive
    };

    Kind kind = Kind::Arrive;
    Tick when = 0;
    std::uint64_t session = 0;

    /**
     * Device of the step's trace record: the session's device on
     * admit, migrate (the target), evict, preempt, depart and kill;
     * -1 on the other steps.
     */
    std::int32_t device = -1;
    std::size_t cls = 0; ///< workload class index
};

/**
 * A traced session step. Each step has one row in sessionSteps and
 * one tally; ServeEngine publishes it at the one place it happens.
 */
enum class SessionStep : std::uint8_t
{
    Arrive,         ///< entered the system
    Admit,          ///< first placement
    Failover,       ///< placed again after a device failure
    PreemptResume,  ///< placed again after a preemption
    Migrate,        ///< moved to another device by the global clock
    Evict,          ///< interrupted by a device failure
    RetryArrive,    ///< fault backoff over: back in the admission queue
    PreemptRequeue, ///< preemption backoff over: back in the queue
    Depart,         ///< lifetime over
    Kill,           ///< ended by per-device protection
    Shed,           ///< retry budget spent
    ShedPredicted,  ///< shed by SLO prediction at arrival
    Throttle,       ///< rejected by the token bucket
    Preempt,        ///< displaced by an interactive admission (last)
};

constexpr std::size_t sessionStepCount =
    static_cast<std::size_t>(SessionStep::Preempt) + 1;

/** Times each SessionStep was published, indexed by step. */
using SessionStepTally = std::array<std::uint64_t, sessionStepCount>;

/**
 * What a session step writes and delivers. Its record carries the
 * session id and, while the session holds an incarnation, its pid;
 * a flow hop and a span end repeat the record's ids in the Serve
 * category.
 */
struct SessionStepRow
{
    const char *name;        ///< trace name of the step's record
    obs::TraceCategory cat;  ///< category of that record
    obs::TraceKind kind;     ///< Instant, or AsyncBegin for the arrival
    SessionEvent::Kind event; ///< kind delivered to listeners
    bool onDevice;           ///< the record carries the session's device
    obs::TraceKind hop;      ///< `session.flow` hop (Instant = none)
    bool endsSpan;           ///< closes the `session` async span
};

/** The step table, indexed by SessionStep. */
extern const std::array<SessionStepRow, sessionStepCount> sessionSteps;

/** Drives arrivals, admission, placement, migration, and departures. */
class ServeEngine
{
  public:
    /**
     * @p slots_per_device is the resolved per-device live-session
     * bound; fleet admission capacity is slots x deviceCount.
     */
    ServeEngine(EventQueue &eq, FleetManager &fleet,
                const ServeConfig &cfg, std::vector<ServeClass> classes,
                std::size_t slots_per_device, std::uint64_t seed);

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    /** Schedule initial arrivals and the global-clock tick. */
    void start();

    // ------------------------------------------------------------------
    // Introspection (results, tests)
    // ------------------------------------------------------------------

    /**
     * Per-session outcomes with the open incarnation's usage folded in
     * (safe to call mid-run; does not mutate engine state).
     */
    std::vector<ServeSessionResult> sessionResults() const;

    /** The record of session @p sid (ids are dense, from 0). */
    const SessionRecord &session(std::uint64_t sid) const
    {
        return *sessions[sid];
    }

    /**
     * Visit every session record in id order without copying; @p fn
     * receives the record plus busy/requests with the open
     * incarnation's meter usage folded in. The windowed analyzer calls
     * this at every window boundary, so it must stay allocation-free.
     */
    void visitSessions(
        const std::function<void(const SessionRecord &, Tick,
                                 std::uint64_t)> &fn) const;

    /**
     * Register a lifecycle listener; events are delivered synchronously
     * at each transition, in registration order. Call before start().
     */
    void addSessionListener(std::function<void(const SessionEvent &)> fn);

    const ServeConfig &config() const { return cfg; }
    const std::vector<ServeClass> &workloadClasses() const { return classes; }
    const AdmissionController &admissionState() const { return adm; }

    /** Times each session step was published so far. */
    const SessionStepTally &stepTally() const { return tally; }

    std::uint64_t arrivalsSeen() const { return count(SessionStep::Arrive); }
    std::uint64_t departures() const { return count(SessionStep::Depart); }
    std::uint64_t killedSessions() const { return count(SessionStep::Kill); }
    std::uint64_t migrationCount() const
    {
        return count(SessionStep::Migrate);
    }
    std::uint64_t evictedSessions() const { return count(SessionStep::Evict); }
    std::uint64_t failoverCount() const
    {
        return count(SessionStep::Failover);
    }
    /** All sheds: retry budget spent plus front-door predictions. */
    std::uint64_t shedSessions() const
    {
        return count(SessionStep::Shed) + predictiveSheds();
    }
    std::uint64_t throttledSessions() const
    {
        return count(SessionStep::Throttle);
    }
    std::uint64_t predictiveSheds() const
    {
        return count(SessionStep::ShedPredicted);
    }
    std::uint64_t preemptionCount() const
    {
        return count(SessionStep::Preempt);
    }
    std::size_t liveSessions() const { return nLive; }
    std::size_t peakLiveSessions() const { return peakLive; }
    std::size_t slotsPerDevice() const { return slots; }

    /** Ids of the sessions with an open incarnation, unordered. */
    const std::vector<std::uint64_t> &placedSessions() const
    {
        return placed;
    }

    /**
     * The incarnation a queued arrival of QoS rank @p arriving_rank
     * would preempt: the lowest-priority live one ranked strictly
     * below it, youngest first, then the highest session id; nullptr
     * if there is none. O(log placed) per call; QoS preemption only.
     */
    const SessionRecord *preemptionVictim(int arriving_rank) const;

    // ------------------------------------------------------------------
    // Service-level rules (shared by results and the analysis plane)
    // ------------------------------------------------------------------

    /** Queue-delay budget of class @p cls: its own, else slo.queueTarget. */
    Tick queueBudgetOf(std::size_t cls) const;

    /**
     * Did a clean departure of class @p cls meet the SLO? Its residency
     * (admitted to departed) must be within slo.sojournTarget and its
     * queueing delay (arrived to admitted) within the class's queue
     * budget; an unset bound always holds.
     */
    bool meetsSlo(std::size_t cls, Tick arrived, Tick admitted,
                  Tick departed) const;

    /**
     * Speed-normalized service rate of @p s: @p busy device time
     * weighted by the speed of the session's last device (a speed
     * <= 0 counts as 1), over @p residency. With migration the device
     * varies by incarnation; the last one's speed stands in for the
     * busy-weighted mean, whose per-incarnation split is not retained.
     */
    double serviceRate(const ServeSessionResult &s, Tick busy,
                       Tick residency) const;

  private:
    void scheduleNextArrival(std::size_t cls);
    void onArrival(std::size_t cls);
    void admitSession(std::uint64_t sid);
    void onDeparture(std::uint64_t sid);
    void finalizeKill(std::uint64_t sid);
    void onEviction(Task &t);
    void onFleetCapacityChange();
    void scheduleRetry(SessionRecord &s);
    void retryArrive(std::uint64_t sid);
    void shedSession(SessionRecord &s);
    void throttleSession(SessionRecord &s);
    void shedAtFrontDoor(SessionRecord &s, const ShedDecision &d);
    bool tryPreempt(int arrivingRank);
    void preemptSession(SessionRecord &victim);
    void preemptRequeue(std::uint64_t sid);
    Tick queuedWorkAhead(int rank) const;
    int qosRankOf(std::size_t cls) const;
    void freeSlot(const std::string &tenant);
    void trackPlaced(SessionRecord &s);
    void untrackPlaced(SessionRecord &s);
    SessionRecord *placedSessionOf(const Task &t);
    void startBody(SessionRecord &s);
    void onClockTick();
    void tryMigrate();
    std::uint64_t bodySeed(const SessionRecord &s) const;

    /**
     * Publish one step of @p s: write its trace records (the step's
     * own with @p arg0 / @p arg1, then its flow hop with @p hop_arg
     * and its span end), bump its tally and deliver its SessionEvent.
     */
    void publish(SessionStep step, const SessionRecord &s,
                 std::int64_t arg0 = 0, std::int64_t arg1 = 0,
                 std::int64_t hop_arg = 0);

    std::uint64_t
    count(SessionStep step) const
    {
        return tally[static_cast<std::size_t>(step)];
    }

    EventQueue &eq;
    FleetManager &fleet;
    ServeConfig cfg;
    std::vector<ServeClass> classes;
    std::size_t slots;
    std::uint64_t seed;

    AdmissionController adm;
    GlobalVirtualClock clock;
    TenantRateLimiter limiter;
    SloAdmission shedder;
    Rng lifetimeRng;
    std::vector<ArrivalProcess> arrivalProcs; ///< parallel to classes

    std::vector<std::unique_ptr<SessionRecord>> sessions; ///< by id

    /**
     * Ids of the sessions with an open incarnation (task != nullptr),
     * unordered: each session keeps its index in placedSlot, and
     * removal is swap-and-pop. Scans over it must break every tie on
     * session state, never on table order.
     */
    std::vector<std::uint64_t> placed;

    /**
     * The placed sessions keyed (QoS rank, admission time, session
     * id), kept only under QoS preemption: a preemption's victim is
     * the largest key ranked above the arrival. A session's admission
     * time is set once, so its key is stable while it is placed.
     */
    std::set<std::tuple<int, Tick, std::uint64_t>> preemptible;
    std::vector<std::function<void(const SessionEvent &)>> listeners;

    SessionStepTally tally{};
    std::size_t nLive = 0;
    std::size_t peakLive = 0;
};

} // namespace neon

#endif // NEON_SERVE_SERVE_ENGINE_HH
