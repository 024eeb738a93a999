/**
 * @file
 * Unit tests for the kernel module: interception, parking, kill
 * protocol, and the Section 6.3 channel-allocation policy.
 */

#include <gtest/gtest.h>

#include <vector>

#include "gpu/device.hh"
#include "os/kernel.hh"
#include "os/scheduler.hh"
#include "sim/event_queue.hh"

namespace neon
{
namespace
{

/** Scriptable policy for exercising the kernel's fault plumbing. */
class ScriptedScheduler : public Scheduler
{
  public:
    explicit ScriptedScheduler(KernelModule &k) : Scheduler(k) {}

    void
    onChannelActive(Channel &c) override
    {
        ++activations;
        if (unprotectOnActive)
            kernel.unprotectChannel(c);
    }

    FaultDecision
    onSubmitFault(Task &, Channel &, const GpuRequest &) override
    {
        ++faults;
        return decision;
    }

    bool unprotectOnActive = true;
    FaultDecision decision = FaultDecision::Allow;
    int faults = 0;
    int activations = 0;
};

struct KernelFixture : public ::testing::Test
{
    EventQueue eq;
    UsageMeter meter;
    DeviceConfig dcfg;
    CostModel costs;
    ChannelPolicy policy;
    std::unique_ptr<GpuDevice> dev;
    std::unique_ptr<KernelModule> kernel;
    std::unique_ptr<ScriptedScheduler> sched;

    void
    build()
    {
        dev = std::make_unique<GpuDevice>(eq, dcfg, meter);
        kernel = std::make_unique<KernelModule>(eq, *dev, costs, policy);
        sched = std::make_unique<ScriptedScheduler>(*kernel);
        kernel->setScheduler(sched.get());
    }
};

Co
loopBody(Task &t, Tick service, int rounds)
{
    Channel *c = co_await t.openChannel(RequestClass::Compute);
    if (!c)
        co_return;
    for (int i = 0; i < rounds; ++i) {
        t.beginRound();
        const std::uint64_t ref =
            co_await t.submit(*c, RequestClass::Compute, service);
        co_await t.waitRef(*c, ref);
        t.endRound();
    }
}

TEST_F(KernelFixture, DirectWriteBypassesScheduler)
{
    build();
    Task task(*kernel, "app");
    kernel->startTask(task, loopBody(task, usec(10), 3));
    kernel->start();
    eq.runFor(msec(200));

    EXPECT_EQ(sched->faults, 0);
    EXPECT_EQ(task.roundTimes().count(), 3u);
    // Channels stay allocated after the body finishes (until teardown).
    EXPECT_EQ(task.channels().size(), 1u);
}

TEST_F(KernelFixture, ProtectedWriteFaultsIntoScheduler)
{
    build();
    sched->unprotectOnActive = false; // stay engaged
    Task task(*kernel, "app");
    kernel->startTask(task, loopBody(task, usec(10), 3));
    kernel->start();
    eq.runFor(msec(200));

    EXPECT_EQ(sched->faults, 3);
    EXPECT_EQ(task.roundTimes().count(), 3u);
}

TEST_F(KernelFixture, InterceptionCostsSlowTheSubmitter)
{
    double direct_round = 0.0;
    double engaged_round = 0.0;

    {
        build();
        Task direct_task(*kernel, "direct");
        kernel->startTask(direct_task,
                          loopBody(direct_task, usec(10), 50));
        kernel->start();
        eq.runFor(msec(200));
        direct_round = direct_task.roundTimes().mean();
    }

    // Fresh world (the task above is gone before the rebuild), engaged.
    {
        build();
        sched->unprotectOnActive = false;
        Task engaged_task(*kernel, "engaged");
        kernel->startTask(engaged_task,
                          loopBody(engaged_task, usec(10), 50));
        kernel->start();
        eq.runFor(msec(200));
        engaged_round = engaged_task.roundTimes().mean();
    }

    EXPECT_NEAR(engaged_round - direct_round, toUsec(costs.faultBase),
                1.0);
}

TEST_F(KernelFixture, ParkedSubmissionWaitsForRelease)
{
    build();
    sched->unprotectOnActive = false;
    sched->decision = FaultDecision::Park;
    Task task(*kernel, "app");
    kernel->startTask(task, loopBody(task, usec(10), 1));
    kernel->start();
    eq.runUntil(msec(50));

    EXPECT_TRUE(kernel->hasParked(task));
    EXPECT_EQ(task.roundTimes().count(), 0u);
    std::vector<int> parked_pids;
    kernel->forEachParkedPid([&](int pid) { parked_pids.push_back(pid); });
    EXPECT_EQ(parked_pids, std::vector<int>{task.pid()});

    sched->decision = FaultDecision::Allow;
    kernel->releaseParked(task);
    eq.runFor(msec(200));
    EXPECT_FALSE(kernel->hasParked(task));
    EXPECT_EQ(task.roundTimes().count(), 1u);
    // The parked round includes the 50ms of delay.
    EXPECT_GT(task.roundTimes().mean(), 49000.0);
}

TEST_F(KernelFixture, KillTaskReclaimsEverything)
{
    build();
    Task task(*kernel, "victim");
    kernel->startTask(task, loopBody(task, maxTick, 1)); // never finishes
    kernel->start();
    eq.runUntil(msec(5));
    ASSERT_EQ(task.channels().size(), 1u);
    ASSERT_TRUE(dev->engineBusy(EngineKind::Execute));

    kernel->killTask(task, "test kill");
    eq.runFor(msec(200));

    EXPECT_TRUE(task.killed());
    EXPECT_TRUE(task.channels().empty());
    EXPECT_EQ(dev->channelsInUse(), 0u);
    EXPECT_FALSE(dev->engineBusy(EngineKind::Execute));
    EXPECT_EQ(kernel->activeChannels().size(), 0u);
    EXPECT_EQ(kernel->killCount(), 1u);
}

TEST_F(KernelFixture, KillIsIdempotent)
{
    build();
    Task task(*kernel, "victim");
    kernel->startTask(task, loopBody(task, maxTick, 1));
    kernel->start();
    eq.runUntil(msec(5));
    kernel->killTask(task, "first");
    kernel->killTask(task, "second");
    EXPECT_EQ(kernel->killCount(), 1u);
}

TEST_F(KernelFixture, ProtectAllEngagesEveryActiveChannel)
{
    build();
    Task a(*kernel, "a"), b(*kernel, "b");
    kernel->startTask(a, loopBody(a, usec(100), 1000));
    kernel->startTask(b, loopBody(b, usec(100), 1000));
    kernel->start();
    eq.runUntil(msec(2));

    for (Channel *c : kernel->activeChannels())
        EXPECT_TRUE(c->doorbell().present());
    kernel->protectAll();
    for (Channel *c : kernel->activeChannels())
        EXPECT_FALSE(c->doorbell().present());
}

TEST_F(KernelFixture, GpuTasksListsOnlyChannelOwners)
{
    build();
    Task a(*kernel, "a"), idle(*kernel, "idle");
    kernel->startTask(a, loopBody(a, usec(100), 1000));
    kernel->start();
    eq.runUntil(msec(2));

    std::vector<Task *> gpu_tasks;
    kernel->forEachGpuTask([&](Task &t) { gpu_tasks.push_back(&t); });
    ASSERT_EQ(gpu_tasks.size(), 1u);
    EXPECT_EQ(gpu_tasks[0], &a);
    (void)idle;
}

Co
parkOneBody(Task &t, Channel **chan)
{
    Channel *c = co_await t.openChannel(RequestClass::Compute);
    *chan = c;
    if (!c)
        co_return;
    const std::uint64_t ref =
        co_await t.submit(*c, RequestClass::Compute, usec(10));
    co_await t.waitRef(*c, ref);
}

TEST_F(KernelFixture, LookupsForgetClosedKilledAndRetiredTasks)
{
    // Four tasks, each with one channel and one parked submission;
    // the first three leave the kernel's tables three different ways,
    // and the survivor's entries, behind theirs, stay intact.
    build();
    sched->unprotectOnActive = false;
    sched->decision = FaultDecision::Park;
    Task a(*kernel, "a"), b(*kernel, "b"), c(*kernel, "c"), d(*kernel, "d");
    Channel *ca = nullptr, *cb = nullptr, *cc = nullptr, *cd = nullptr;
    kernel->startTask(a, parkOneBody(a, &ca));
    kernel->startTask(b, parkOneBody(b, &cb));
    kernel->startTask(c, parkOneBody(c, &cc));
    kernel->startTask(d, parkOneBody(d, &cd));
    kernel->start();
    eq.runUntil(msec(5));

    ASSERT_TRUE(ca && cb && cc && cd);
    const int ida = ca->id(), idb = cb->id(), idc = cc->id(), idd = cd->id();
    EXPECT_EQ(kernel->findChannel(ida), ca);
    EXPECT_EQ(kernel->findChannel(idb), cb);
    EXPECT_EQ(kernel->findChannel(idc), cc);
    EXPECT_EQ(kernel->findChannel(idd), cd);
    for (const Task *t : {&a, &b, &c, &d})
        EXPECT_TRUE(kernel->hasParked(*t)) << t->name();

    kernel->closeChannel(a, ca);
    EXPECT_EQ(kernel->findChannel(ida), nullptr);

    kernel->killTask(b, "test kill");
    EXPECT_EQ(kernel->findChannel(idb), nullptr);
    EXPECT_FALSE(kernel->hasParked(b));

    kernel->retireTask(c);
    EXPECT_EQ(kernel->findChannel(idc), nullptr);
    EXPECT_FALSE(kernel->hasParked(c));

    EXPECT_EQ(kernel->findChannel(idd), cd);
    EXPECT_TRUE(kernel->hasParked(d));
    std::vector<int> parked_pids;
    kernel->forEachParkedPid([&](int pid) { parked_pids.push_back(pid); });
    EXPECT_EQ(parked_pids, (std::vector<int>{a.pid(), d.pid()}));

    // A closed channel's parked submission is dropped at release.
    kernel->releaseParked(a);
    EXPECT_FALSE(kernel->hasParked(a));
    EXPECT_EQ(kernel->findChannel(idd), cd);
}

// --------------------------------------------------------------------
// Section 6.3: channel-allocation protection policy.
// --------------------------------------------------------------------

Co
hogBody(Task &t, int want, int *got)
{
    for (int i = 0; i < want; ++i) {
        GpuContext *ctx = t.kernelRef().createContext(t);
        Channel *c = co_await t.openChannel(RequestClass::Compute, ctx);
        if (!c)
            co_return;
        ++*got;
    }
}

TEST_F(KernelFixture, UnprotectedAllocationAllowsExhaustion)
{
    dcfg.maxChannels = 8;
    build();
    Task hog(*kernel, "hog");
    int got = 0;
    kernel->startTask(hog, hogBody(hog, 100, &got));
    kernel->start();
    eq.runFor(msec(200));

    EXPECT_EQ(got, 8);
    EXPECT_EQ(hog.openResult, OpenResult::OutOfChannels);
    EXPECT_EQ(dev->freeChannels(), 0u);
}

TEST_F(KernelFixture, PolicyCapsPerTaskChannels)
{
    dcfg.maxChannels = 8;
    policy.protect = true;
    policy.perTaskLimit = 2;
    build();
    Task hog(*kernel, "hog");
    int got = 0;
    kernel->startTask(hog, hogBody(hog, 100, &got));
    kernel->start();
    eq.runFor(msec(200));

    EXPECT_EQ(got, 2);
    EXPECT_EQ(hog.openResult, OpenResult::PerTaskLimit);
    EXPECT_EQ(dev->freeChannels(), 6u);
}

TEST_F(KernelFixture, PolicyCapsConcurrentGpuUsers)
{
    dcfg.maxChannels = 4;
    policy.protect = true;
    policy.perTaskLimit = 2; // at most 4/2 = 2 concurrent users
    build();

    Task a(*kernel, "a"), b(*kernel, "b"), c(*kernel, "c");
    int got_a = 0, got_b = 0, got_c = 0;
    kernel->startTask(a, hogBody(a, 1, &got_a));
    kernel->startTask(b, hogBody(b, 1, &got_b));
    kernel->startTask(c, hogBody(c, 1, &got_c));
    kernel->start();
    eq.runFor(msec(200));

    EXPECT_EQ(got_a, 1);
    EXPECT_EQ(got_b, 1);
    EXPECT_EQ(got_c, 0);
    EXPECT_EQ(c.openResult, OpenResult::TooManyUsers);
}

} // namespace
} // namespace neon
