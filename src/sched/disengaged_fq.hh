/**
 * @file
 * Disengaged Fair Queueing (paper 3.3).
 *
 * The scheduler alternates long disengaged free-run periods (multiple
 * tasks enjoy direct device access simultaneously) with short
 * engagement episodes:
 *
 *   barrier -> drain -> per-task sampling -> virtual-time update and
 *   access-denial decision -> next free run.
 *
 * During a free run the kernel only polls reference counters (activity
 * observation). At each engagement it samples every recently active
 * task in turn — exclusive access, full interception — to estimate its
 * mean request size, then attributes the preceding interval's device
 * time to active tasks in proportion to those estimates (the paper's
 * heuristic; see DfqConfig::Attribution for the vendor-statistics
 * alternative). Tasks that have run ahead of the system virtual time by
 * more than the next interval are denied access for that interval.
 */

#ifndef NEON_SCHED_DISENGAGED_FQ_HH
#define NEON_SCHED_DISENGAGED_FQ_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "gpu/usage_meter.hh"
#include "os/kernel.hh"
#include "os/scheduler.hh"
#include "sched/vtime_tap.hh"
#include "sim/id_map.hh"

namespace neon
{

/** Tunables for Disengaged Fair Queueing. */
struct DfqConfig
{
    /** Per-task sampling budget: time cap... */
    Tick samplingMax = msec(5);

    /** ...or request-count cap, whichever hits first (paper: 32). */
    int samplingRequests = 32;

    /** Count cap for tasks with multiple channels (paper: 96). */
    int samplingRequestsMulti = 96;

    /**
     * Completions faster than this are classified as trivial
     * state-change commands (NEON parses the command stream during
     * engagement anyway) and excluded from request-size estimation.
     */
    Tick samplingSizeFloor = usec(3);

    /** Free run lasts this many times the engagement episode. */
    double freeRunMultiplier = 5.0;

    /** Lower bound on the free-run period. */
    Tick minFreeRun = msec(5);

    /** First free run after the initial channel activation. */
    Tick initialFreeRun = msec(25);

    /** Drain wait beyond which the offending task is killed. */
    Tick killThreshold = msec(200);

    /**
     * How free-run device time is attributed to active tasks.
     *
     * ShareProportional is the paper's software estimate (share of the
     * interval proportional to sampled mean request size, capped by the
     * sampled duty cycle) — subject to the glxgears/multi-channel
     * anomalies. CountTimesSize multiplies reference-counter deltas by
     * the sampled mean size; still a software estimate, with its own
     * artifact (trivial commands inflate the counts). DeviceCounters
     * models the Section 6.1 world where the vendor exports per-context
     * busy time; it requires setVendorCounters().
     */
    enum class Attribution
    {
        ShareProportional,
        CountTimesSize,
        DeviceCounters,
    };
    Attribution attribution = Attribution::ShareProportional;
};

/** The disengaged fair-queueing policy. */
class DisengagedFairQueueing : public Scheduler, public VirtualTimeTap
{
  public:
    enum class Phase { Idle, FreeRun, Draining, Sampling };

    DisengagedFairQueueing(KernelModule &kernel,
                           const DfqConfig &cfg = DfqConfig());

    void onChannelActive(Channel &c) override;
    void onTaskExited(Task &t) override;
    FaultDecision onSubmitFault(Task &t, Channel &c,
                                const GpuRequest &req) override;
    void onPoll(Tick now) override;

    // Introspection (tests/benches).
    Phase phase() const { return curPhase; }
    Tick vtimeOf(int pid) const;
    Tick systemVtime() const { return sysVtime; }

    // VirtualTimeTap (cross-device aggregation).
    Tick tapSystemVtime() const override { return sysVtime; }
    Tick tapTaskVtime(int pid) const override { return vtimeOf(pid); }
    bool isDenied(int pid) const;
    Tick currentFreeRun() const { return freeRunLen; }
    Tick estSizeOf(int pid) const;
    double dutyOf(int pid) const;

    /**
     * Provide the vendor-exported per-context busy counters needed by
     * Attribution::DeviceCounters (the Section 6.1 hardware-assisted
     * mode). Never consulted under the software-only attributions.
     */
    void setVendorCounters(const UsageMeter *m) { vendorCounters = m; }
    std::uint64_t episodes() const { return nEpisodes; }

    /** Pids with per-task state: live tasks only (erased on exit). */
    std::size_t trackedTasks() const { return taskStates.size(); }

  private:
    struct TaskState
    {
        Tick vtime = 0;
        Tick estSize = 0; ///< sampled mean request size; 0 = unknown
        double duty = 1.0; ///< sampled busy fraction of the task
        std::uint64_t intervalCompletions = 0;
        bool denied = false;

        // Sampling scratch. Busy time is integrated over the window by
        // tracking outstanding work per channel (submission faults give
        // the submitted refs, the completion hook the completed ones).
        std::uint64_t sampleCount = 0;
        Tick sampleServiceSum = 0;
        Tick sampleStart = 0;
        Tick busyAccum = 0;
        Tick busySince = 0;
        bool busyNow = false;
        bool parkedPending = false;
        /** By channel id: (last submitted, last completed) ref. */
        IdMap<std::pair<std::uint64_t, std::uint64_t>> chanRefs;
    };

    /** Creates the pid's state if absent (see IdMap on references). */
    TaskState &stateOf(int pid) { return taskStates[pid]; }

    void enterFreeRun(Tick length);
    void episodeBegin();
    void pollDeltas();
    bool drainedOut(const Task &t) const;
    bool allDrained() const;
    void killUndrained(Tick now);
    void beginSampling();
    void sampleNext();
    void onSampleCompletion(int pid, int channel_id, std::uint64_t ref,
                            Tick when, Tick service);
    void endSample();
    bool samplePendingWork(const TaskState &ts) const;
    void decide();
    void applyAccess(Task &t, bool denied);

    DfqConfig cfg;
    Phase curPhase = Phase::Idle;
    const UsageMeter *vendorCounters = nullptr;
    IdMap<Tick> vendorBusySeen; // by pid

    IdMap<TaskState> taskStates; // by pid

    /** decide()'s pids with interval completions (kept for capacity). */
    std::vector<int> activePids;

    Tick sysVtime = 0;
    Tick freeRunLen = 0;
    Tick intervalStart = 0; ///< start of the current free run
    Tick drainStart = 0;
    Tick drainReadyAt = 0;
    Tick drainEnd = 0;

    EventId episodeTimer = invalidEventId;
    EventId samplingDeadline = invalidEventId;

    std::vector<int> samplingQueue;
    int samplingPid = -1;
    int samplingTarget = 0;

    /**
     * After a task's sampling run ends, its last allowed submission may
     * still be on the device; exclusivity for the next sampled task
     * requires waiting for it (poll granularity, like any drain).
     */
    int samplingDrainPid = -1;

    std::uint64_t nEpisodes = 0;
};

} // namespace neon

#endif // NEON_SCHED_DISENGAGED_FQ_HH
