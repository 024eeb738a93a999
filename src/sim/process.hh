/**
 * @file
 * Simulated process: a coroutine driven by the event queue.
 *
 * A Process runs a Co body. The body suspends through awaitables created
 * by the process (sleepFor) or by higher layers (GPU submission,
 * completion waits). All resumptions are funnelled through resumeAt() so
 * that a killed process is never resumed again.
 */

#ifndef NEON_SIM_PROCESS_HH
#define NEON_SIM_PROCESS_HH

#include <coroutine>
#include <functional>
#include <string>

#include "sim/coroutine.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace neon
{

/**
 * Base simulated process.
 *
 * Lifecycle: Created -> Running (after start()) -> Done | Killed.
 * While Running, the body alternates between executing synchronously
 * inside event callbacks and being suspended on an awaitable.
 */
class Process
{
  public:
    enum class State { Created, Running, Done, Killed };

    Process(EventQueue &eq, std::string name);
    virtual ~Process();

    Process(const Process &) = delete;
    Process &operator=(const Process &) = delete;

    /** Begin executing @p body; the first step runs at now(). */
    void start(Co body);

    /**
     * Kill the process: cancel any pending wakeup and destroy the
     * coroutine frame. Safe to call while the process is suspended; must
     * not be called from inside the process's own body (defer via an
     * event instead).
     */
    void kill();

    /**
     * Retire the process: like kill(), but a graceful, expected end of
     * life (state becomes Done, onKilled is not invoked). Open-system
     * workloads use this when a task's lifetime expires or it migrates
     * to another device. Same reentrancy rule as kill(): never call it
     * from inside the process's own body.
     */
    void retire();

    const std::string &name() const { return procName; }
    State state() const { return procState; }
    bool alive() const { return procState == State::Running; }
    bool done() const { return procState == State::Done; }
    bool killed() const { return procState == State::Killed; }
    EventQueue &eventQueue() { return eq; }
    Tick now() const { return eq.now(); }

    /** Invoked once when the process is killed. */
    std::function<void(Process &)> onKilled;

    /**
     * Resume the suspended body after @p delay ticks. Called by awaitable
     * plumbing; ignores dead processes. Only one pending resume may exist
     * at a time (one body, one suspension point).
     */
    void resumeAt(Tick delay);

    /** Cancel a pending resumeAt (e.g., to re-park on another condition). */
    void cancelResume();

    /**
     * Record the suspension point. Called from await_suspend; the handle
     * must belong to this process's body.
     */
    void suspended(std::coroutine_handle<> h);

    /** Awaitable: suspend for a fixed duration. */
    struct SleepAwaitable
    {
        Process &proc;
        Tick duration;

        bool await_ready() const { return duration <= 0; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            proc.suspended(h);
            proc.resumeAt(duration);
        }

        void await_resume() const {}
    };

    /** Suspend the body for @p d ticks of simulated time. */
    SleepAwaitable sleepFor(Tick d) { return {*this, d}; }

  private:
    void stepBody();

    EventQueue &eq;
    std::string procName;
    State procState = State::Created;
    Co body;
    std::coroutine_handle<> suspendPoint;
    EventId pendingResume = invalidEventId;
};

} // namespace neon

#endif // NEON_SIM_PROCESS_HH
