/**
 * @file
 * A task: the resource principal to which we provide fair service.
 *
 * Tasks are simulated processes (coroutine bodies) that interact with
 * the accelerator the way real applications do: build a command, write
 * the doorbell (possibly faulting into the kernel), and spin in user
 * space on the channel's reference counter for completion.
 */

#ifndef NEON_OS_TASK_HH
#define NEON_OS_TASK_HH

#include <coroutine>
#include <cstdint>
#include <string>
#include <vector>

#include "gpu/channel.hh"
#include "gpu/request.hh"
#include "sim/process.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace neon
{

class GpuContext;
class KernelModule;

/** Result of a channel-allocation attempt (Sec. 6.3 policy). */
enum class OpenResult
{
    Ok,
    OutOfChannels, ///< device pool exhausted (unprotected DoS outcome)
    PerTaskLimit,  ///< policy: task exceeded its C channels
    TooManyUsers,  ///< policy: more than D/C tasks would use the GPU
};

/**
 * Simulated application process with accelerator access.
 */
class Task : public Process
{
  public:
    Task(KernelModule &kernel, std::string name);
    ~Task() override;

    int pid() const { return taskPid; }
    KernelModule &kernelRef() { return kern; }

    /** Channels currently owned (kernel-maintained). */
    const std::vector<Channel *> &channels() const { return chans; }
    void noteChannelOwned(Channel *c) { chans.push_back(c); }
    void noteChannelGone(Channel *c);

    /** The task's default GPU context (created lazily by the kernel). */
    GpuContext *defaultContext = nullptr;

    // ------------------------------------------------------------------
    // Awaitables used by workload bodies
    // ------------------------------------------------------------------

    /** Awaitable channel open via the kernel (syscall + mmaps). */
    struct OpenChannelAwaitable
    {
        Task &t;
        RequestClass cls;
        GpuContext *ctx;

        bool await_ready() const { return false; }
        void await_suspend(std::coroutine_handle<> h);
        Channel *await_resume() const { return t.openResultChannel; }
    };

    /**
     * Awaitable submission: allocates the completion reference, then
     * performs the doorbell write through the kernel model. Resumes when
     * the write retires (directly, after fault handling, or after a
     * scheduler-imposed delay). Resume value is the reference to await.
     */
    struct SubmitAwaitable
    {
        Task &t;
        Channel &c;
        GpuRequest req;

        bool await_ready() const { return false; }
        void await_suspend(std::coroutine_handle<> h);
        std::uint64_t await_resume() const { return req.ref; }
    };

    /** Awaitable user-space spin on the channel reference counter. */
    struct WaitRefAwaitable
    {
        Task &t;
        Channel &c;
        std::uint64_t ref;

        bool await_ready() const { return c.completedRef() >= ref; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            t.suspended(h);
            Task *tp = &t;
            // One per awaited request: the wake-up stays inline.
            auto wake = [tp] { tp->resumeAt(0); };
            static_assert(Channel::Waiter::fitsInline<decltype(wake)>);
            c.waitRef(ref, std::move(wake));
        }

        void await_resume() const {}
    };

    /** Open a channel of the given class (default context if null). */
    OpenChannelAwaitable
    openChannel(RequestClass cls, GpuContext *ctx = nullptr)
    {
        return {*this, cls, ctx};
    }

    /** Submit a request with the given device occupancy. */
    SubmitAwaitable
    submit(Channel &c, RequestClass cls, Tick service, bool awaited = true)
    {
        GpuRequest r;
        r.cls = cls;
        r.serviceTime = service;
        r.awaited = awaited;
        return {*this, c, r};
    }

    /** Spin until the channel's reference counter reaches @p ref. */
    WaitRefAwaitable
    waitRef(Channel &c, std::uint64_t ref)
    {
        return {*this, c, ref};
    }

    // ------------------------------------------------------------------
    // Round accounting (the user-visible performance unit)
    // ------------------------------------------------------------------

    void beginRound() { roundStart = now(); }

    void
    endRound()
    {
        roundDurations.add(toUsec(now() - roundStart));
    }

    /** Completed-round durations in microseconds. */
    const Accum &roundTimes() const { return roundDurations; }

    /** Clear measurement state (end of warmup). */
    void resetStats() { roundDurations.reset(); }

    /** Outcome slot for OpenChannelAwaitable (set by the kernel). */
    Channel *openResultChannel = nullptr;
    OpenResult openResult = OpenResult::Ok;

  private:
    KernelModule &kern;
    int taskPid;
    std::vector<Channel *> chans;
    Tick roundStart = 0;
    Accum roundDurations;
};

} // namespace neon

#endif // NEON_OS_TASK_HH
