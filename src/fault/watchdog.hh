/**
 * @file
 * Watchdog: the kernel's hung/runaway-channel detection service.
 *
 * The paper's protection mechanism detects a channel that stops making
 * doorbell progress and kills the offending process without trusting
 * it. The watchdog generalizes that into a periodic kernel service:
 * every checkPeriod it stamps each active channel's completed-reference
 * counter, and a channel that holds pending work without advancing for
 * hangTimeout convicts — not itself, but the task whose request
 * currently occupies the channel's engine (the Section 6.2
 * vendor-assisted query), so a starved victim never takes the blame
 * for the hog that starves it. A separate runaway check kills a single
 * request that monopolizes an engine past runawayTimeout even with no
 * victims queued behind it. Killed tasks go through the kernel's kill
 * protocol (quarantine: the serve layer never retries them).
 */

#ifndef NEON_FAULT_WATCHDOG_HH
#define NEON_FAULT_WATCHDOG_HH

#include <cstdint>
#include <vector>

#include "fault/fault_config.hh"
#include "sim/id_map.hh"
#include "sim/periodic.hh"
#include "sim/types.hh"

namespace neon
{

class KernelModule;

/** Why the watchdog killed a task. */
enum class WatchdogCause
{
    Hang,    ///< a channel's doorbell progress stalled past hangTimeout
    Runaway, ///< one request held an engine past runawayTimeout
};

/** One watchdog kill (the availability report's detection record). */
struct WatchdogKill
{
    int pid = 0;
    std::size_t device = 0;
    WatchdogCause cause = WatchdogCause::Hang;
    Tick at = 0;      ///< kill time
    Tick latency = 0; ///< observed no-progress / occupancy duration
};

/** Per-device-stack hung/runaway-channel detection service. */
class Watchdog
{
  public:
    Watchdog(EventQueue &eq, KernelModule &kernel,
             const WatchdogConfig &cfg, std::size_t device_index);

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Arm the periodic scan. */
    void start();

    const std::vector<WatchdogKill> &killLog() const { return log; }
    std::uint64_t hangKills() const { return nHangKills; }
    std::uint64_t runawayKills() const { return nRunawayKills; }
    std::uint64_t scans() const { return nScans; }

  private:
    /** Last observed progress of one channel. */
    struct Progress
    {
        std::uint64_t ref = 0; ///< completedRef at the stamp
        Tick since = 0;        ///< when that value was first seen
    };

    void scan();
    bool convict(int pid, WatchdogCause cause, Tick latency);

    EventQueue &eq;
    KernelModule &kernel;
    WatchdogConfig cfg;
    std::size_t device;

    Periodic cadence;

    /** Stamps by channel id: the last scan's, and this scan's scratch. */
    IdMap<Progress> progress;
    IdMap<Progress> fresh;
    std::vector<WatchdogKill> log;
    std::uint64_t nHangKills = 0;
    std::uint64_t nRunawayKills = 0;
    std::uint64_t nScans = 0;
};

} // namespace neon

#endif // NEON_FAULT_WATCHDOG_HH
