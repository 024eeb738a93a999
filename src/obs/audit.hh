/**
 * @file
 * Always-on invariant auditor.
 *
 * The test suite asserts conservation invariants (session usage ==
 * device meters, admitted == live + departed + killed + shed, vtime
 * monotonicity, watchdog detection-latency bounds) — but only in
 * tests. This promotes them to a runtime plane: an AuditLog counts
 * every check and records violations (never silently), and an Auditor
 * drives registered checks on a virtual-time cadence plus a final pass
 * at harvest. Default-enabled in every world: checks are read-only
 * (they cannot perturb simulation outcomes) and the hot path of a
 * passing check is one predicted branch plus a counter bump, so the
 * auditor rides along in every example and bench the way disabled
 * trace points do.
 */

#ifndef NEON_OBS_AUDIT_HH
#define NEON_OBS_AUDIT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/periodic.hh"
#include "sim/types.hh"

namespace neon
{

class FleetManager;
class ServeEngine;
struct WatchdogConfig;

namespace obs
{

/** Per-run auditor configuration (ObserveConfig::audit). */
struct AuditConfig
{
    /** Run the registered invariant checks (on by default). */
    bool enabled = true;

    /** Periodic check cadence in virtual time. */
    static constexpr Tick period = msec(10);
};

/** One recorded invariant violation (diagnostic sample). */
struct AuditViolation
{
    std::string check;
    Tick when = 0;
    std::int64_t expected = 0;
    std::int64_t actual = 0;
};

/** Harvested audit outcome (RunResult / ServeRunResult). */
struct AuditReport
{
    std::uint64_t checks = 0;     ///< individual checks evaluated
    std::uint64_t violations = 0; ///< checks that failed
    std::vector<std::pair<std::string, std::uint64_t>> byCheck;
    /** The first AuditLog::maxSamples failures. */
    std::vector<AuditViolation> samples;

    bool clean() const { return violations == 0; }
    std::string summary() const;
};

/**
 * Violation ledger with a bench-grade hot path: a passing check is one
 * branch and a counter increment — cheap enough to sit on a per-event
 * loop (perfbench's obs.audit_overhead measures what the auditor costs
 * a real serving run). Failures are counted per check name and
 * sampled, never silent.
 */
class AuditLog
{
  public:
    /** Violation samples retained for diagnostics (counts never cap). */
    static constexpr std::size_t maxSamples = 8;

    /**
     * Evaluate one invariant. A failing check copies @p name, so it
     * need only live for the call.
     */
    void
    check(bool ok, const char *name, Tick when, std::int64_t expected = 0,
          std::int64_t actual = 0)
    {
        ++nChecks;
        if (ok) [[likely]]
            return;
        recordViolation(name, when, expected, actual);
    }

    std::uint64_t checks() const { return nChecks; }
    std::uint64_t violations() const { return nViolations; }

    AuditReport report() const;

  private:
    void recordViolation(const char *name, Tick when, std::int64_t expected,
                         std::int64_t actual);

    std::uint64_t nChecks = 0;
    std::uint64_t nViolations = 0;
    std::map<std::string, std::uint64_t> perCheck; ///< violations by name
    std::vector<AuditViolation> samples;
};

/**
 * Drives registered checks against one world's EventQueue: periodic
 * checks every AuditConfig::period of virtual time, and final checks
 * run once at finalize(). All checks are read-only observers of
 * simulation state; in sharded runs the periodic event executes on
 * the control queue at window barriers, where reading shard state is
 * safe.
 */
class Auditor
{
  public:
    /** A check body: evaluate invariants into @p log at time @p now. */
    using Check = std::function<void(AuditLog &, Tick)>;

    explicit Auditor(EventQueue &q)
        : eq(q), cadence(q, AuditConfig::period, [this] { runPeriodic(); })
    {
    }

    Auditor(const Auditor &) = delete;
    Auditor &operator=(const Auditor &) = delete;

    /** Run @p fn every AuditConfig::period (and once more at finalize). */
    void addPeriodic(Check fn) { periodic.push_back(std::move(fn)); }

    /** Run @p fn once, at finalize. */
    void addFinal(Check fn) { finals.push_back(std::move(fn)); }

    /** Arm the periodic cadence. */
    void start() { cadence.start(); }

    /**
     * Run every periodic check once more plus all final checks, and
     * stop the cadence. Idempotent; results() paths call it freely.
     */
    void finalize();

    AuditLog &log() { return log_; }
    AuditReport report() const { return log_.report(); }

  private:
    void runPeriodic();

    EventQueue &eq;
    Periodic cadence;
    AuditLog log_;
    std::vector<Check> periodic;
    std::vector<Check> finals;
    bool finalized = false;
};

/**
 * Register the standard fleet invariants: per-device scheduler vtime
 * monotonicity (devN.vtime_monotone, for devices whose policy
 * publishes a virtual time) and meter busy monotonicity
 * (devN.busy_monotone), both in one periodic pass over the fleet's
 * vtime cells and device meters, and — when @p wd is given — the
 * watchdog detection-latency bound (kill latency <= timeout + 2 x
 * checkPeriod) as a final check over the fleet's kill log.
 */
void registerFleetAudits(Auditor &a, FleetManager &fleet,
                         const WatchdogConfig *wd = nullptr);

/**
 * Register the serving-layer invariants: admitted-session conservation
 * (arrivals == live + departures + kills + sheds + throttled, checked
 * continuously) and exact usage reconciliation (session busy/request sums == device
 * meter sums, final — the runtime form of the fault-integration test's
 * expectExactAccounting).
 */
void registerServeAudits(Auditor &a, ServeEngine &engine,
                         FleetManager &fleet);

} // namespace obs
} // namespace neon

#endif // NEON_OBS_AUDIT_HH
