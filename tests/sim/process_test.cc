/**
 * @file
 * Unit tests for coroutine-based simulated processes.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"
#include "sim/process.hh"

namespace neon
{
namespace
{

Co
sleeperBody(Process &p, std::vector<Tick> *wakeups, int n, Tick step)
{
    for (int i = 0; i < n; ++i) {
        co_await p.sleepFor(step);
        wakeups->push_back(p.now());
    }
}

TEST(Process, SleepAdvancesSimulatedTime)
{
    EventQueue eq;
    Process p(eq, "sleeper");
    std::vector<Tick> wakeups;
    p.start(sleeperBody(p, &wakeups, 3, 100));
    eq.drain();

    EXPECT_EQ(wakeups, (std::vector<Tick>{100, 200, 300}));
    EXPECT_TRUE(p.done());
}

TEST(Process, StateTransitions)
{
    EventQueue eq;
    Process p(eq, "p");
    EXPECT_EQ(p.state(), Process::State::Created);

    std::vector<Tick> wakeups;
    p.start(sleeperBody(p, &wakeups, 1, 50));
    EXPECT_EQ(p.state(), Process::State::Running);

    eq.drain();
    EXPECT_EQ(p.state(), Process::State::Done);
}

/**
 * Suspends until an external agent calls resumeAt(), the protocol the
 * task layer's submission and completion awaitables follow.
 */
struct ExternalWake
{
    Process &proc;

    bool await_ready() const { return false; }
    void await_suspend(std::coroutine_handle<> h) { proc.suspended(h); }
    void await_resume() const {}
};

Co
parkedBody(Process &p, bool *resumed)
{
    co_await ExternalWake{p};
    *resumed = true;
}

TEST(Process, ParkAndExternalWake)
{
    EventQueue eq;
    Process p(eq, "parked");
    bool resumed = false;
    p.start(parkedBody(p, &resumed));
    eq.runUntil(100);
    EXPECT_FALSE(resumed);

    p.resumeAt(0);
    eq.drain();
    EXPECT_TRUE(resumed);
}

TEST(Process, KillCancelsPendingWakeup)
{
    EventQueue eq;
    Process p(eq, "victim");
    std::vector<Tick> wakeups;
    p.start(sleeperBody(p, &wakeups, 10, 100));
    eq.runUntil(250); // two wakeups in
    EXPECT_EQ(wakeups.size(), 2u);

    p.kill();
    eq.drain();
    EXPECT_EQ(wakeups.size(), 2u); // no further progress
    EXPECT_TRUE(p.killed());
}

struct RaiiProbe
{
    bool *flag;
    explicit RaiiProbe(bool *f) : flag(f) {}
    ~RaiiProbe() { *flag = true; }
};

Co
raiiBody(Process &p, bool *destroyed)
{
    RaiiProbe probe(destroyed);
    co_await p.sleepFor(1000);
}

TEST(Process, KillRunsRaiiCleanupInBody)
{
    EventQueue eq;
    Process p(eq, "raii");
    bool destroyed = false;
    p.start(raiiBody(p, &destroyed));
    eq.runUntil(10);
    EXPECT_FALSE(destroyed);

    p.kill();
    EXPECT_TRUE(destroyed);
}

TEST(Process, KillingFinishedProcessIsNoOp)
{
    EventQueue eq;
    Process p(eq, "p");
    std::vector<Tick> wakeups;
    p.start(sleeperBody(p, &wakeups, 1, 10));
    eq.drain();
    EXPECT_TRUE(p.done());
    p.kill();
    EXPECT_TRUE(p.done()); // still Done, not Killed
}

TEST(Process, ResumeAtIgnoredForDeadProcess)
{
    EventQueue eq;
    Process p(eq, "p");
    std::vector<Tick> wakeups;
    p.start(sleeperBody(p, &wakeups, 1, 10));
    eq.drain();
    p.resumeAt(0); // must not crash or schedule anything
    eq.drain();
    SUCCEED();
}

TEST(Process, ManyProcessesInterleaveDeterministically)
{
    EventQueue eq;
    std::vector<Tick> wakeups_a, wakeups_b;
    Process a(eq, "a"), b(eq, "b");
    a.start(sleeperBody(a, &wakeups_a, 4, 10));
    b.start(sleeperBody(b, &wakeups_b, 2, 25));
    eq.drain();
    EXPECT_EQ(wakeups_a, (std::vector<Tick>{10, 20, 30, 40}));
    EXPECT_EQ(wakeups_b, (std::vector<Tick>{25, 50}));
}

} // namespace
} // namespace neon
