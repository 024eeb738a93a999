/**
 * @file
 * Ground-truth request tracing for Table 1 and Figure 2.
 *
 * Attaches to the device's trace hooks and records, per task, the
 * inter-arrival times of submissions and the service times of awaited
 * requests (trivial submissions are never checked for completion and
 * are excluded from service statistics, as in the paper's measurement
 * methodology).
 */

#ifndef NEON_METRICS_REQUEST_TRACE_HH
#define NEON_METRICS_REQUEST_TRACE_HH

#include <vector>

#include "gpu/device.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace neon
{

/** Per-task submission/service statistics collector. */
class RequestTrace
{
  public:
    /** Install the trace hooks on @p device. */
    void attach(GpuDevice &device);

    struct PerTask
    {
        Log2Histogram interArrivalUs{18};
        Log2Histogram serviceUs{14};
        Accum serviceAccumUs;     ///< awaited requests only
        std::uint64_t submissions = 0;
    };

    /**
     * Per-task record. The returned reference is invalidated when a
     * previously unseen (higher) task id first submits — storage is a
     * flat vector — so read results after the run, or re-fetch after
     * tasks may have joined.
     */
    const PerTask &of(int task_id) const;

    bool
    has(int task_id) const
    {
        return task_id >= 0 &&
            static_cast<std::size_t>(task_id) < present.size() &&
            present[task_id];
    }

    void reset();

  private:
    /**
     * Task ids are small and dense (pids count up from 1), so flat
     * vectors indexed by id beat a tree map on the per-submission hot
     * path. Grown on first touch of an id.
     */
    PerTask &slotFor(int task_id);

    std::vector<PerTask> perTask;       // indexed by task id
    std::vector<unsigned char> present; // 1 iff the id has a record
    std::vector<Tick> lastSubmit;       // by task id; -1 = none yet
};

} // namespace neon

#endif // NEON_METRICS_REQUEST_TRACE_HH
