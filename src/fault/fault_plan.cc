#include "fault/fault_plan.hh"

#include <algorithm>

#include "sim/random.hh"

namespace neon
{

namespace
{

/** Draw a Poisson process of @p kind events for one device. */
void
drawProcess(std::vector<FaultEvent> &out, Rng &rng, Tick horizon,
            double rate_per_sec, FaultKind kind, std::size_t device,
            Tick mean_duration)
{
    if (rate_per_sec <= 0.0)
        return;
    const double mean_gap_ticks = 1e9 / rate_per_sec;
    Tick t = 0;
    for (;;) {
        t += static_cast<Tick>(rng.exponential(mean_gap_ticks));
        if (t > horizon)
            return;
        FaultEvent ev;
        ev.at = t;
        ev.kind = kind;
        ev.device = device;
        if (mean_duration > 0) {
            ev.duration = std::max<Tick>(
                msec(1), static_cast<Tick>(rng.exponential(
                             static_cast<double>(mean_duration))));
        }
        out.push_back(ev);
    }
}

} // namespace

std::vector<FaultEvent>
buildFaultPlan(const FaultPlanConfig &cfg, std::size_t devices,
               std::uint64_t root_seed)
{
    std::vector<FaultEvent> plan = cfg.script;

    if (cfg.enabled && cfg.horizon > 0) {
        Rng rng = namedStream(root_seed, "fault.plan");
        // Fixed (device, kind) draw order keeps the plan a pure
        // function of the inputs.
        for (std::size_t d = 0; d < devices; ++d) {
            drawProcess(plan, rng, cfg.horizon, cfg.deathRatePerSec,
                        FaultKind::DeviceDeath, d, cfg.meanRepair);
            drawProcess(plan, rng, cfg.horizon, cfg.stallRatePerSec,
                        FaultKind::DeviceStall, d, cfg.meanStall);
            drawProcess(plan, rng, cfg.horizon, cfg.hangRatePerSec,
                        FaultKind::ChannelHang, d, 0);
        }
    }

    std::stable_sort(plan.begin(), plan.end(),
                     [](const FaultEvent &a, const FaultEvent &b) {
                         if (a.at != b.at)
                             return a.at < b.at;
                         if (a.device != b.device)
                             return a.device < b.device;
                         return static_cast<int>(a.kind) <
                             static_cast<int>(b.kind);
                     });
    return plan;
}

} // namespace neon
