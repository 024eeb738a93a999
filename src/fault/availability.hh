/**
 * @file
 * AvailabilityReport: injected vs. detected vs. recovered, assembled
 * by the harness from the injector's record, the watchdog kill logs,
 * and the serve layer's session outcomes. The eviction and shed counts
 * are the run's own (ServeRunResult::evictions, ::shedSessions).
 */

#ifndef NEON_FAULT_AVAILABILITY_HH
#define NEON_FAULT_AVAILABILITY_HH

#include <cstdint>

namespace neon
{

/** Fault-plane outcome of one run. */
struct AvailabilityReport
{
    // Injection side.
    std::uint64_t injectedDeaths = 0;
    std::uint64_t injectedStalls = 0;
    std::uint64_t injectedHangs = 0;
    std::uint64_t skippedInjections = 0; ///< target was already down/empty

    // Detection side.
    std::uint64_t detectedHangs = 0;     ///< injected hangs the watchdog killed
    std::uint64_t watchdogHangKills = 0; ///< all hang-cause kills
    std::uint64_t watchdogRunawayKills = 0;
    std::uint64_t schedulerKills = 0;    ///< per-device protection (non-watchdog)

    // Recovery side (sessions interrupted by device death).
    std::uint64_t recoveredSessions = 0; ///< evicted and later departed
    std::uint64_t repairs = 0;           ///< outages closed within the run

    /** Mean time to detect an injected hang (ms); 0 if none detected. */
    double mttdMs = 0.0;

    /** Mean outage (death-to-repair) duration (ms); 0 if no outage. */
    double mttrMs = 0.0;

    /** Fraction of device-seconds the fleet was up (1.0 = no faults). */
    double availability = 1.0;
};

} // namespace neon

#endif // NEON_FAULT_AVAILABILITY_HH
