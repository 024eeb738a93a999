#include "metrics/request_trace.hh"

#include "sim/logging.hh"

namespace neon
{

RequestTrace::PerTask &
RequestTrace::slotFor(int task_id)
{
    if (task_id < 0)
        panic("request trace: negative task id ", task_id);
    const auto idx = static_cast<std::size_t>(task_id);
    if (idx >= perTask.size()) {
        perTask.resize(idx + 1);
        present.resize(idx + 1, 0);
        lastSubmit.resize(idx + 1, -1);
    }
    present[idx] = 1;
    return perTask[idx];
}

void
RequestTrace::attach(GpuDevice &device)
{
    device.traceSubmit = [this](Channel &c, const GpuRequest &,
                                Tick when) {
        const int task_id = c.context().taskId();
        auto &pt = slotFor(task_id);
        ++pt.submissions;

        if (lastSubmit[task_id] >= 0)
            pt.interArrivalUs.add(toUsec(when - lastSubmit[task_id]));
        lastSubmit[task_id] = when;
    };

    device.traceComplete = [this](Channel &c, const GpuRequest &r,
                                  Tick start, Tick end) {
        const int task_id = c.context().taskId();
        auto &pt = slotFor(task_id);
        if (r.awaited) {
            const double us = toUsec(end - start);
            pt.serviceUs.add(us);
            pt.serviceAccumUs.add(us);
        }
    };
}

const RequestTrace::PerTask &
RequestTrace::of(int task_id) const
{
    if (!has(task_id))
        panic("no trace recorded for task ", task_id);
    return perTask[task_id];
}

void
RequestTrace::reset()
{
    perTask.clear();
    present.clear();
    lastSubmit.clear();
}

} // namespace neon
