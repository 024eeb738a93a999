/**
 * @file
 * The simulated accelerator.
 *
 * Behavioural contract (all the schedulers ever rely on):
 *  - requests enter per-channel ring buffers via doorbell notification
 *    and are processed in FIFO order within a channel;
 *  - the execute engine cycles round-robin among channels with pending
 *    work, one request per visit, paying a context-switch cost between
 *    contexts;
 *  - a separate copy engine serves DMA channels concurrently;
 *  - on completion the device writes the request's reference value to
 *    the channel's reference counter (visible to user spinners at once,
 *    to the kernel at polling granularity);
 *  - requests may run forever (malicious/buggy); the only remedy is
 *    aborting the channel, which models killing the owning process and
 *    letting the driver's exit protocol reclaim resources.
 */

#ifndef NEON_GPU_DEVICE_HH
#define NEON_GPU_DEVICE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gpu/arbiter.hh"
#include "gpu/channel.hh"
#include "gpu/context.hh"
#include "gpu/device_config.hh"
#include "gpu/request.hh"
#include "gpu/usage_meter.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace neon
{

/** Availability of a device (the fault plane's state machine). */
enum class DeviceHealth
{
    Up,       ///< serving normally
    Degraded, ///< transient stall: in-flight work paused, nothing dispatches
    Down,     ///< dead: in-flight work lost, nothing dispatches until repair
};

/** The accelerator device model. */
class GpuDevice
{
  public:
    GpuDevice(EventQueue &eq, const DeviceConfig &cfg, UsageMeter &meter);

    GpuDevice(const GpuDevice &) = delete;
    GpuDevice &operator=(const GpuDevice &) = delete;

    const DeviceConfig &config() const { return cfg; }

    /** Fleet position, stamped into trace records (DeviceStack sets). */
    void setDeviceIndex(int i) { devIndex = static_cast<std::int16_t>(i); }
    std::int16_t deviceIndex() const { return devIndex; }

    /** Create a device context for a task. */
    GpuContext *createContext(int task_id);

    /** Tear down a context; all its channels must be gone already. */
    void destroyContext(GpuContext *ctx);

    /**
     * Allocate a channel in @p ctx.
     * @return nullptr when the device's channel pool is exhausted
     *         (the Section 6.3 denial-of-service scenario).
     */
    Channel *createChannel(GpuContext &ctx, RequestClass cls);

    /** Remove an idle channel. Busy channels must be aborted first. */
    void destroyChannel(Channel *c);

    /**
     * Doorbell landing: a request descriptor is now visible in the
     * channel's ring buffer. Called by the kernel model once the user's
     * store retires (directly or after interception).
     */
    void submit(Channel &c, GpuRequest req);

    /**
     * Abort a channel: cancel its active request (if any) without
     * writing the reference counter, drop queued requests, and occupy
     * the engine for the cleanup period. Models the process-kill path.
     */
    void abortChannel(Channel &c);

    bool engineBusy(EngineKind k) const { return engineOf(k).busy; }
    Channel *engineCurrent(EngineKind k) const { return engineOf(k).current; }

    /** Current availability state. */
    DeviceHealth health() const { return health_; }

    /**
     * Transient stall: pause in-flight requests and suspend dispatch
     * for @p duration (overlapping stalls extend the window). Paused
     * requests resume where they left off; no work is lost.
     */
    void stall(Tick duration);

    /**
     * Full device death. In-flight requests are lost: their reference
     * counters never advance, but the time they occupied the engines is
     * still charged to their tasks. Dispatch stops until repair().
     */
    void forceDown();

    /** Bring a Down device back to Up and restart dispatch. */
    void repair();

    /**
     * Hang injection: if @p c is executing now, its active request
     * becomes infinite; otherwise the next request dispatched from the
     * channel hangs. Either way only the watchdog/scheduler can clear it.
     */
    void injectHang(Channel &c);

    /** Start time of the request currently on the engine (debug/tests). */
    Tick engineServiceStart(EngineKind k) const
    {
        return engineOf(k).serviceStart;
    }

    std::size_t channelsInUse() const { return liveChannels; }
    std::size_t freeChannels() const
    {
        return cfg.maxChannels - liveChannels;
    }

    /** Ground-truth tracing hooks (metrics only; not scheduler-visible). */
    std::function<void(Channel &, const GpuRequest &, Tick)> traceSubmit;
    std::function<void(Channel &, const GpuRequest &, Tick, Tick)>
        traceComplete;

  private:
    struct Engine
    {
        EngineKind kind = EngineKind::Execute;
        Arbiter arb;
        bool busy = false;
        Channel *current = nullptr;
        GpuRequest active;
        Tick serviceStart = 0;
        EventId completionEvent = invalidEventId;
        Tick completionAt = 0;      ///< when completionEvent fires
        Tick pausedRemaining = -1;  ///< service left across a stall; -1 idle
        int lastContext = -1;
        int lastChannel = -1;
        RequestClass lastClass = RequestClass::Compute;

        explicit Engine(EngineKind k) : kind(k) {}
    };

    Engine &engineOf(EngineKind k)
    {
        return k == EngineKind::Execute ? engines[0] : engines[1];
    }

    const Engine &engineOf(EngineKind k) const
    {
        return k == EngineKind::Execute ? engines[0] : engines[1];
    }

    void tryDispatch(Engine &e);
    void finish(Engine &e);
    void resumeFromStall();

    EventQueue &eq;
    DeviceConfig cfg;
    UsageMeter &meter;
    std::int16_t devIndex = 0;

    DeviceHealth health_ = DeviceHealth::Up;
    Tick stallUntil = 0;
    Tick pauseStart = 0;
    EventId stallResumeEvent = invalidEventId;

    std::array<Engine, 2> engines;
    std::vector<std::unique_ptr<GpuContext>> contexts;
    std::vector<std::unique_ptr<Channel>> channels;
    std::size_t liveChannels = 0;
    int nextCtxId = 1;
    int nextChanId = 1;
};

} // namespace neon

#endif // NEON_GPU_DEVICE_HH
