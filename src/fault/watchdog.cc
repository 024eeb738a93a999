#include "fault/watchdog.hh"

#include <utility>

#include "obs/trace.hh"
#include "os/kernel.hh"
#include "sim/event_queue.hh"

namespace neon
{

Watchdog::Watchdog(EventQueue &eq, KernelModule &kernel,
                   const WatchdogConfig &cfg, std::size_t device_index)
    : eq(eq), kernel(kernel), cfg(cfg), device(device_index),
      cadence(eq, cfg.checkPeriod, [this] { scan(); })
{
}

void
Watchdog::start()
{
    if (cfg.enabled)
        cadence.start();
}

bool
Watchdog::convict(int pid, WatchdogCause cause, Tick latency)
{
    Task *t = kernel.findTask(pid);
    if (!t || !t->alive())
        return false;

    WatchdogKill k;
    k.pid = pid;
    k.device = device;
    k.cause = cause;
    k.at = eq.now();
    k.latency = latency;
    log.push_back(k);
    if (cause == WatchdogCause::Hang)
        ++nHangKills;
    else
        ++nRunawayKills;

    NEON_TRACE(obs::TraceCategory::Fault, obs::TraceKind::Instant,
               "wd.kill",
               obs::TraceIds{static_cast<std::int16_t>(device), pid, -1},
               latency, cause == WatchdogCause::Hang ? 0 : 1);

    kernel.killTask(*t, cause == WatchdogCause::Hang
                            ? "watchdog: hung channel"
                            : "watchdog: runaway request");
    return true;
}

void
Watchdog::scan()
{
    ++nScans;
    GpuDevice &dev = kernel.device();
    if (dev.health() != DeviceHealth::Up) {
        // A degraded/down device makes no progress by design; drop all
        // stamps so a stall can never be mistaken for a hang.
        progress.clear();
        return;
    }

    const Tick now = eq.now();

    // Hang pass: stamp the completed-reference counter of each channel
    // holding pending work. Stale stamps (idle or vanished channels)
    // fall away because only re-seen channels enter the fresh map,
    // which then swaps with the old one: both keep their capacity. The
    // kill happens after the scan — killTask tears channels out of the
    // active list we are iterating.
    int offender = -1;
    Tick offender_latency = 0;
    fresh.clear();
    for (const Channel *c : kernel.activeChannels()) {
        if (!c->busyOnDevice() && c->ring().empty())
            continue;
        const std::uint64_t ref = c->completedRef();
        Progress p{ref, now};
        const Progress *last = progress.find(c->id());
        if (last && last->ref == ref)
            p = *last; // still stuck at the stamped value
        fresh[c->id()] = p;

        if (offender < 0 && now - p.since >= cfg.hangTimeout) {
            // Convict the engine's current occupant (the vendor-assisted
            // "currently running context" query) — under a hog, starved
            // channels time out too, and the blame must land on the
            // request actually holding the engine.
            const Channel *occ = dev.engineCurrent(c->engine());
            if (occ) {
                offender = occ->context().taskId();
                offender_latency = now - p.since;
            }
        }
    }
    std::swap(progress, fresh);

    bool killed = false;
    if (offender >= 0)
        killed = convict(offender, WatchdogCause::Hang, offender_latency);

    // Runaway pass: one request monopolizing an engine is killed even
    // with nobody starving behind it.
    if (!killed && cfg.runawayTimeout > 0) {
        for (const EngineKind k : {EngineKind::Execute, EngineKind::Copy}) {
            const Channel *occ = dev.engineCurrent(k);
            if (!occ)
                continue;
            const Tick held = now - dev.engineServiceStart(k);
            if (held >= cfg.runawayTimeout &&
                convict(occ->context().taskId(), WatchdogCause::Runaway,
                        held)) {
                killed = true;
                break;
            }
        }
    }

    // Grace period after a kill: every survivor restamps on the next
    // scan, so victims starved by the offender are never cascade-killed
    // for lateness the offender caused.
    if (killed)
        progress.clear();
}

} // namespace neon
