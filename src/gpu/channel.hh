/**
 * @file
 * A GPU channel: one request queue and its software infrastructure.
 *
 * A channel bundles the command/ring buffers, the user-mapped doorbell
 * register, and the reference counter the device writes on completion.
 * Channels belong to a GPU context (address space) and are held by the
 * creating task until teardown — the device does not multiplex requests
 * from different tasks on one channel.
 */

#ifndef NEON_GPU_CHANNEL_HH
#define NEON_GPU_CHANNEL_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "gpu/request.hh"
#include "gpu/ring_buffer.hh"
#include "mmio/doorbell.hh"
#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace neon
{

class GpuContext;

/**
 * Channel state shared (conceptually) between the user library, the
 * device, and — through interception or polling — the OS kernel.
 */
class Channel
{
  public:
    /** A user-space spin on the reference counter (stored inline). */
    using Waiter = InlineFunction<void()>;

    Channel(int id, GpuContext &ctx, RequestClass cls, std::size_t ring_cap)
        : chanId(id), owner(ctx), chanClass(cls), pending(ring_cap)
    {
    }

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    int id() const { return chanId; }
    GpuContext &context() { return owner; }
    const GpuContext &context() const { return owner; }
    RequestClass channelClass() const { return chanClass; }
    EngineKind engine() const { return engineFor(chanClass); }

    /** The user-mapped register the kernel can protect/unprotect. */
    DoorbellRegister &doorbell() { return bell; }
    const DoorbellRegister &doorbell() const { return bell; }

    /** Pending (submitted, not yet dispatched) requests. */
    RingBuffer &ring() { return pending; }
    const RingBuffer &ring() const { return pending; }

    /**
     * Allocate the completion reference for the next request. Performed
     * by the user library while building the command before the doorbell
     * write, so the app knows what value to spin on.
     */
    std::uint64_t allocRef() { return ++refSequence; }

    /** Value of the last reference handed out (user-side view). */
    std::uint64_t lastAllocatedRef() const { return refSequence; }

    /**
     * Reference of the most recently *submitted* request — what NEON's
     * re-engagement command-queue scan recovers.
     */
    std::uint64_t lastSubmittedRef() const { return submittedRef; }
    void noteSubmitted(std::uint64_t r) { submittedRef = r; }

    /** The reference counter the device writes upon completion. */
    std::uint64_t completedRef() const { return doneRef; }

    /**
     * Device-side completion: advance the reference counter and wake any
     * user-space spinners whose target has been reached.
     */
    void
    complete(std::uint64_t r)
    {
        if (r > doneRef)
            doneRef = r;
        std::size_t kept = 0;
        for (std::size_t i = 0; i < waiters.size(); ++i) {
            if (waiters[i].first <= doneRef) {
                // Moved out first: the waiter may register more
                // waiters, and growing the vector relocates its slot.
                Waiter fn = std::move(waiters[i].second);
                fn();
            } else {
                waiters[kept++] = std::move(waiters[i]);
            }
        }
        waiters.resize(kept);
    }

    /**
     * Register a user-space spin on the reference counter reaching
     * @p ref. Fires immediately via the callback when complete() catches
     * up (the app polls shared memory, so there is no kernel latency).
     */
    void
    waitRef(std::uint64_t ref, Waiter fn)
    {
        waiters.emplace_back(ref, std::move(fn));
    }

    /** True if the channel's queue has been fully drained. */
    bool drained() const { return pending.empty() && !running; }

    /** Set while the device is actively executing a request from here. */
    bool busyOnDevice() const { return running; }
    void setBusyOnDevice(bool b) { running = b; }

    /**
     * Optional kernel-installed completion hook (used while a channel is
     * being actively sampled; models the aggressive monitoring NEON does
     * during engagement). Receives (ref, completion time, service time).
     */
    std::function<void(std::uint64_t, Tick, Tick)> kernelCompletionHook;

    /**
     * The scheduler's last poll snapshot of the reference counter
     * (DFQ's free-run activity observation; it takes the first one
     * when the channel becomes active).
     */
    std::uint64_t polledRef = 0;

    /**
     * Fault-injection arming: the next request dispatched from this
     * channel hangs (its service time becomes infinite). Set by the
     * fault injector when the channel is idle; consumed at dispatch.
     */
    bool hangArmed = false;

  private:
    int chanId;
    GpuContext &owner;
    RequestClass chanClass;
    RingBuffer pending;
    DoorbellRegister bell;

    std::uint64_t refSequence = 0;
    std::uint64_t submittedRef = 0;
    std::uint64_t doneRef = 0;
    bool running = false;

    std::vector<std::pair<std::uint64_t, Waiter>> waiters;
};

} // namespace neon

#endif // NEON_GPU_CHANNEL_HH
