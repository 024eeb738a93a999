/**
 * @file
 * Named metrics registry.
 *
 * Instrumented code registers probes once at construction: callbacks
 * into live simulation state (queue depth, live sessions, vtime lag).
 * Each sampleNow() evaluates every probe into an in-memory time series
 * and (when the Counter trace category is enabled) mirrors each sample
 * into the trace ring so exported timelines get counter tracks. The
 * Observer calls it on a virtual-time cadence.
 */

#ifndef NEON_OBS_METRICS_HH
#define NEON_OBS_METRICS_HH

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace neon
{
namespace obs
{

/** One (virtual time, value) sample. */
struct MetricSample
{
    Tick when;
    double value;
};

/** A sampled metric's recorded time series. */
struct MetricSeries
{
    std::string name;
    std::vector<MetricSample> samples;
};

/** Owns the probes of one simulation run and their recorded series. */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Register a probe: @p fn is evaluated at each sampling tick.
     * Registering a name again replaces its callback and keeps its
     * series.
     */
    void probe(const std::string &name, std::function<double()> fn);

    /** Take one sample of every probe right now (time from @p eq). */
    void sampleNow(EventQueue &eq);

    /** Recorded series for every probe (registration order). */
    const std::vector<MetricSeries> &series() const { return series_; }

    /**
     * Dump the time series as CSV: one row per sample time, one column
     * per probe ("time_us,metric,...").
     */
    void printCsv(std::ostream &os) const;

  private:
    std::vector<std::function<double()>> probes; ///< parallel to series_
    std::vector<MetricSeries> series_;
};

} // namespace obs
} // namespace neon

#endif // NEON_OBS_METRICS_HH
