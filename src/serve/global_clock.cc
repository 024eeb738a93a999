#include "serve/global_clock.hh"

#include "obs/trace.hh"

namespace neon
{

GlobalVirtualClock::GlobalVirtualClock(FleetManager &fleet,
                                       std::size_t slots_per_device)
    : fleet(fleet), slotsPerDevice(slots_per_device)
{
}

const std::vector<DeviceClockSample> &
GlobalVirtualClock::sample()
{
    const std::vector<Tick> &vtimes = fleet.publishedVtimes();
    const std::vector<double> &speeds = fleet.speedFactors();
    const std::vector<std::size_t> &live = fleet.liveTaskCounts();
    const std::vector<char> &up = fleet.upFlags();
    samples.resize(vtimes.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        DeviceClockSample &s = samples[i];
        s.index = i;
        s.speedFactor = speeds[i] > 0.0 ? speeds[i] : 1.0;
        s.liveTasks = live[i];
        s.up = up[i] != 0;
        s.hasVtime = vtimes[i] != FleetManager::noVtime;
        s.vtime = s.hasVtime ? vtimes[i] : 0;
        s.normVtime = s.hasVtime
            ? static_cast<Tick>(static_cast<double>(s.vtime) * s.speedFactor)
            : 0;
    }
    return samples;
}

std::size_t
GlobalVirtualClock::placeSteered()
{
    return pickLagging(sample(), slotsPerDevice);
}

MigrationPlan
GlobalVirtualClock::checkMigration(Tick lag_threshold,
                                   std::size_t min_tasks)
{
    const MigrationPlan plan = planMigration(
        sample(), lag_threshold, min_tasks, slotsPerDevice);
    NEON_TRACE(obs::TraceCategory::Serve, obs::TraceKind::Instant,
               "clock.lag_check",
               obs::TraceIds{plan.migrate
                                 ? static_cast<std::int16_t>(plan.from)
                                 : std::int16_t(-1),
                             -1, -1},
               plan.lag, plan.migrate ? 1 : 0);
    return plan;
}

std::size_t
GlobalVirtualClock::pickLagging(
    const std::vector<DeviceClockSample> &devices,
    std::size_t slots_per_device)
{
    // Most-lagging (lowest normalized vtime) device with a free slot;
    // ties break toward fewer live sessions, then lower index, so an
    // all-idle fleet fills in index order. Devices without a vtime tap
    // sort as maximally lagging (vtime 0).
    bool have = false;
    std::size_t best = 0;
    Tick best_v = 0;
    std::size_t best_tasks = 0;
    for (const DeviceClockSample &d : devices) {
        if (!d.up || d.liveTasks >= slots_per_device)
            continue;
        const Tick v = d.hasVtime ? d.normVtime : 0;
        if (!have || v < best_v ||
            (v == best_v && d.liveTasks < best_tasks)) {
            have = true;
            best = d.index;
            best_v = v;
            best_tasks = d.liveTasks;
        }
    }
    if (have)
        return best;

    // Every up device is at capacity (the admission controller normally
    // prevents this): least-crowded up device wins; only an all-down
    // fleet falls back to ignoring availability.
    bool have_up = false;
    for (const DeviceClockSample &d : devices)
        have_up = have_up || d.up;
    bool seeded = false;
    best = devices.empty() ? 0 : devices[0].index;
    for (const DeviceClockSample &d : devices) {
        if (have_up && !d.up)
            continue;
        if (!seeded || d.liveTasks < best_tasks) {
            seeded = true;
            best = d.index;
            best_tasks = d.liveTasks;
        }
    }
    return best;
}

MigrationPlan
GlobalVirtualClock::planMigration(
    const std::vector<DeviceClockSample> &devices, Tick lag_threshold,
    std::size_t min_tasks, std::size_t slots_per_device)
{
    MigrationPlan plan;
    if (lag_threshold <= 0)
        return plan;

    // From: lowest normalized vtime among devices crowded enough to be
    // worth relieving. To: highest normalized vtime with a free slot.
    bool have_from = false, have_to = false;
    std::size_t from = 0, to = 0;
    Tick from_v = 0, to_v = 0;
    for (const DeviceClockSample &d : devices) {
        if (!d.hasVtime || !d.up)
            continue;
        if (d.liveTasks >= min_tasks &&
            (!have_from || d.normVtime < from_v)) {
            have_from = true;
            from = d.index;
            from_v = d.normVtime;
        }
        if (d.liveTasks < slots_per_device &&
            (!have_to || d.normVtime > to_v)) {
            have_to = true;
            to = d.index;
            to_v = d.normVtime;
        }
    }

    if (!have_from || !have_to || from == to)
        return plan;
    if (to_v - from_v <= lag_threshold)
        return plan;

    plan.migrate = true;
    plan.from = from;
    plan.to = to;
    plan.lag = to_v - from_v;
    return plan;
}

} // namespace neon
