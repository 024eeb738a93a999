#include "obs/audit.hh"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fault/fault_config.hh"
#include "fleet/fleet_manager.hh"
#include "serve/serve_engine.hh"
#include "sim/event_queue.hh"

namespace neon
{
namespace obs
{

std::string
AuditReport::summary() const
{
    std::ostringstream os;
    if (clean()) {
        os << "audit clean: " << checks << " checks, 0 violations";
        return os.str();
    }
    os << "AUDIT VIOLATIONS: " << violations << " of " << checks
       << " checks failed (";
    bool first = true;
    for (const auto &kv : byCheck) {
        if (kv.second == 0)
            continue;
        if (!first)
            os << ", ";
        os << kv.first << " x" << kv.second;
        first = false;
    }
    os << ")";
    return os.str();
}

AuditReport
AuditLog::report() const
{
    AuditReport r;
    r.checks = nChecks;
    r.violations = nViolations;
    r.byCheck.assign(perCheck.begin(), perCheck.end());
    r.samples = samples;
    return r;
}

void
AuditLog::recordViolation(const char *name, Tick when, std::int64_t expected,
                          std::int64_t actual)
{
    ++nViolations;
    ++perCheck[name];
    if (samples.size() < maxSamples)
        samples.push_back({name, when, expected, actual});
}

void
Auditor::runPeriodic()
{
    for (Check &c : periodic)
        c(log_, eq.now());
}

void
Auditor::finalize()
{
    if (finalized)
        return;
    finalized = true;
    cadence.stop();
    runPeriodic();
    for (Check &c : finals)
        c(log_, eq.now());
}

namespace
{

/** Check that @p value did not fall below @p last; name it on failure. */
void
checkNonDecreasing(AuditLog &log, std::size_t device, const char *suffix,
                   Tick now, Tick last, Tick value)
{
    if (value >= last) [[likely]] {
        log.check(true, suffix, now);
        return;
    }
    std::string name = "dev";
    name += std::to_string(device);
    name += suffix;
    log.check(false, name.c_str(), now, last, value);
}

} // namespace

void
registerFleetAudits(Auditor &a, FleetManager &fleet,
                    const WatchdogConfig *wd)
{
    // Per-device monotonicity in one dense pass: each device's
    // published system virtual time (devices whose cell held one at
    // registration) and its meter's busy total must never fall between
    // two periodic observations; the first observation only records.
    struct Last
    {
        Tick vtime;
        Tick busy;
        bool tapped;
    };
    std::vector<Last> devices;
    devices.reserve(fleet.deviceCount());
    for (const Tick v : fleet.publishedVtimes())
        devices.push_back({0, 0, v != FleetManager::noVtime});
    a.addPeriodic(
        [&fleet, devices = std::move(devices),
         primed = false](AuditLog &log, Tick now) mutable {
            const std::vector<Tick> &vtimes = fleet.publishedVtimes();
            for (std::size_t i = 0; i < devices.size(); ++i) {
                Last &d = devices[i];
                if (d.tapped) {
                    if (primed)
                        checkNonDecreasing(log, i, ".vtime_monotone", now,
                                           d.vtime, vtimes[i]);
                    d.vtime = vtimes[i];
                }
                const Tick busy = fleet.stack(i).meter.totalBusy();
                if (primed)
                    checkNonDecreasing(log, i, ".busy_monotone", now,
                                       d.busy, busy);
                d.busy = busy;
            }
            primed = true;
        });

    if (wd && wd->enabled) {
        // The watchdog convicts on scan boundaries: a hang that starts
        // right after one scan is first stamped a period later and must
        // then age past the timeout, so detection latency is bounded by
        // timeout + 2 x checkPeriod.
        const WatchdogConfig cfg = *wd;
        a.addFinal([&fleet, cfg](AuditLog &log, Tick now) {
            for (const WatchdogKill &k : fleet.watchdogKillLog()) {
                const Tick timeout = k.cause == WatchdogCause::Hang
                    ? cfg.hangTimeout
                    : cfg.runawayTimeout;
                const Tick bound = timeout + 2 * cfg.checkPeriod;
                log.check(k.latency <= bound, "watchdog.latency_bound", now,
                          bound, k.latency);
            }
        });
    }
}

void
registerServeAudits(Auditor &a, ServeEngine &engine, FleetManager &fleet)
{
    // Conservation holds at every event boundary: a session is always
    // exactly one of in-system (queued/placed/backing-off), departed,
    // killed, shed, or throttled.
    a.addPeriodic([&engine](AuditLog &log, Tick now) {
        const std::int64_t arrivals =
            static_cast<std::int64_t>(engine.arrivalsSeen());
        const std::int64_t accounted =
            static_cast<std::int64_t>(engine.liveSessions()) +
            static_cast<std::int64_t>(engine.departures()) +
            static_cast<std::int64_t>(engine.killedSessions()) +
            static_cast<std::int64_t>(engine.shedSessions()) +
            static_cast<std::int64_t>(engine.throttledSessions());
        log.check(arrivals == accounted, "serve.conservation", now,
                  arrivals, accounted);
    });

    // The counter identity above could hold while per-session flags
    // drifted (a session double-counted as shed *and* departed, or
    // flagged done with no terminal outcome). The final partition
    // check recounts outcomes from the records themselves: every
    // session is exactly one of served, killed, shed, throttled, or
    // still in-system, and each tally matches its engine counter.
    a.addFinal([&engine](AuditLog &log, Tick now) {
        std::int64_t served = 0, killed = 0, shed = 0;
        std::int64_t throttled = 0, inSystem = 0, total = 0;
        bool exclusive = true;
        engine.visitSessions([&](const SessionRecord &s, Tick,
                                 std::uint64_t) {
            ++total;
            const bool isServed =
                s.done && !s.killed && !s.shed && !s.throttled;
            const int ways = (isServed ? 1 : 0) + (s.killed ? 1 : 0) +
                (s.shed ? 1 : 0) + (s.throttled ? 1 : 0) +
                (s.done ? 0 : 1);
            if (ways != 1)
                exclusive = false;
            if (!s.done)
                ++inSystem;
            else if (s.killed)
                ++killed;
            else if (s.throttled)
                ++throttled;
            else if (s.shed)
                ++shed;
            else
                ++served;
        });
        log.check(exclusive, "serve.outcome_partition", now, 1, 0);
        log.check(served + killed + shed + throttled + inSystem == total,
                  "serve.outcome_partition", now, total,
                  served + killed + shed + throttled + inSystem);
        log.check(served == static_cast<std::int64_t>(engine.departures()),
                  "serve.outcome_partition", now,
                  static_cast<std::int64_t>(engine.departures()), served);
        log.check(shed == static_cast<std::int64_t>(engine.shedSessions()),
                  "serve.outcome_partition", now,
                  static_cast<std::int64_t>(engine.shedSessions()), shed);
        log.check(throttled ==
                      static_cast<std::int64_t>(engine.throttledSessions()),
                  "serve.outcome_partition", now,
                  static_cast<std::int64_t>(engine.throttledSessions()),
                  throttled);
    });

    // Exact usage reconciliation (the runtime form of the tests'
    // expectExactAccounting): every tick and request the meters charged
    // must be attributed to exactly one session, across migrations,
    // evictions, failovers, and kills. The meter side is each device's
    // live slots plus the totals its retired pids folded in, so a
    // charge that lands after an incarnation's fold shows up here.
    a.addFinal([&engine, &fleet](AuditLog &log, Tick now) {
        Tick session_busy = 0;
        std::uint64_t session_reqs = 0;
        engine.visitSessions([&](const SessionRecord &, Tick busy,
                                 std::uint64_t reqs) {
            session_busy += busy;
            session_reqs += reqs;
        });
        Tick meter_busy = 0;
        std::uint64_t meter_reqs = 0;
        for (std::size_t i = 0; i < fleet.deviceCount(); ++i) {
            const UsageMeter &m = fleet.stack(i).meter;
            meter_busy += m.totalBusy();
            meter_reqs += m.totalRequests();
        }
        log.check(session_busy == meter_busy,
                  "serve.usage_reconciliation", now, meter_busy,
                  session_busy);
        log.check(session_reqs == meter_reqs,
                  "serve.usage_reconciliation", now,
                  static_cast<std::int64_t>(meter_reqs),
                  static_cast<std::int64_t>(session_reqs));
    });
}

} // namespace obs
} // namespace neon
