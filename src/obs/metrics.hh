/**
 * @file
 * Named metrics registry with virtual-time sampling.
 *
 * Instrumented code registers probes once at construction: callbacks
 * into live simulation state (queue depth, live sessions, vtime lag).
 * The registry evaluates every probe on a configurable virtual-time
 * cadence into an in-memory time series and (when the Counter trace
 * category is enabled) mirrors each sample into the trace ring so
 * exported timelines get counter tracks.
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

/**
 * Owns the probes of one simulation run and samples them on a
 * virtual-time cadence.
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * Register a probe: @p fn is evaluated at each sampling tick.
     * Registering a name again replaces its callback and keeps its
     * series.
     */
    void probe(const std::string &name, std::function<double()> fn);

    /**
     * Begin sampling every registered metric each @p period of virtual
     * time on @p eq (first sample at now + period). Stops automatically
     * at destruction; calling again re-arms with the new cadence.
     */
    void startSampling(EventQueue &eq, Tick period);

    /** Cancel the sampling cadence (series are kept). */
    void stopSampling();

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
    void scheduleNext();

    std::vector<std::function<double()>> probes; ///< parallel to series_
    std::vector<MetricSeries> series_;

    EventQueue *eq = nullptr;
    Tick period = 0;
    EventId pending{};
};

} // namespace obs
} // namespace neon

#endif // NEON_OBS_METRICS_HH
