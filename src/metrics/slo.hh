/**
 * @file
 * Service-level accounting for open-system (serving) runs.
 *
 * A closed experiment reports per-task round times; an open system is
 * judged by distributional service-level objectives: how long sessions
 * queued for admission, how long they stayed, and how much slower they
 * ran than they would have alone. The helpers here turn per-session
 * samples into nearest-rank percentile summaries.
 */

#ifndef NEON_METRICS_SLO_HH
#define NEON_METRICS_SLO_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace neon
{

/** Nearest-rank percentile summary of one latency/ratio series. */
struct LatencySummary
{
    std::uint64_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/** Nearest-rank percentile of a sorted series (q in [0, 1]). */
inline double
percentileOfSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank = q * static_cast<double>(sorted.size());
    std::size_t idx =
        rank <= 1.0 ? 0 : static_cast<std::size_t>(rank + 0.5) - 1;
    if (idx >= sorted.size())
        idx = sorted.size() - 1;
    return sorted[idx];
}

/** Summarize a series (sorts a copy; fine at session counts). */
inline LatencySummary
summarizeLatencies(std::vector<double> xs)
{
    LatencySummary s;
    if (xs.empty())
        return s;
    std::sort(xs.begin(), xs.end());
    s.count = xs.size();
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    s.mean = sum / static_cast<double>(xs.size());
    s.p50 = percentileOfSorted(xs, 0.50);
    s.p95 = percentileOfSorted(xs, 0.95);
    s.p99 = percentileOfSorted(xs, 0.99);
    s.max = xs.back();
    return s;
}

/**
 * Goodput: of the sessions that departed cleanly (not killed, not
 * shed), the fraction that met every configured SLO target
 * (ServeConfig::slo). Untargeted runs report fraction 1.0 with
 * targeted == false, so the field is always meaningful to print.
 */
struct GoodputReport
{
    bool targeted = false;       ///< was any SLO target configured?
    std::uint64_t eligible = 0;  ///< departed, un-killed sessions
    std::uint64_t met = 0;       ///< of those, met every target
    double fraction = 1.0;       ///< met / eligible (1.0 when no eligible)
};

/** Goodput of one workload class (per-QoS-class SLO attainment). */
struct ClassGoodput
{
    std::string label;
    GoodputReport goodput;
};

/** SLO report for one serving run. */
struct SloReport
{
    /** Arrival-to-admission queueing delay, ms (admitted sessions). */
    LatencySummary queueDelayMs;

    /** Admission-to-departure residency, ms (departed sessions). */
    LatencySummary sojournMs;

    /** Arrival-to-departure latency, ms (departed sessions). */
    LatencySummary turnaroundMs;

    /**
     * Per-session mean round time over the class's isolated (solo,
     * direct-access) baseline — the paper's slowdown metric applied
     * per departed session.
     */
    LatencySummary slowdown;

    /** Fraction of clean departures meeting the configured targets. */
    GoodputReport goodput;

    /** Goodput split per workload class (spec order). */
    std::vector<ClassGoodput> goodputByClass;
};

} // namespace neon

#endif // NEON_METRICS_SLO_HH
