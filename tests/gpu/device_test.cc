/**
 * @file
 * Unit tests for the device model: dispatch, completion, reference
 * counters, context-switch accounting, DMA overlap, channel pool
 * exhaustion, abort.
 */

#include <gtest/gtest.h>

#include "gpu/device.hh"
#include "sim/event_queue.hh"

namespace neon
{
namespace
{

struct DeviceFixture : public ::testing::Test
{
    EventQueue eq;
    UsageMeter meter;
    DeviceConfig cfg;
    std::unique_ptr<GpuDevice> dev;

    void
    build()
    {
        dev = std::make_unique<GpuDevice>(eq, cfg, meter);
    }

    GpuRequest
    req(Channel &c, Tick service, RequestClass cls = RequestClass::Compute)
    {
        GpuRequest r;
        r.cls = cls;
        r.serviceTime = service;
        r.ref = c.allocRef();
        return r;
    }
};

TEST_F(DeviceFixture, SingleRequestCompletesAfterServiceTime)
{
    build();
    auto *ctx = dev->createContext(1);
    auto *c = dev->createChannel(*ctx, RequestClass::Compute);
    ASSERT_NE(c, nullptr);

    dev->submit(*c, req(*c, usec(100)));
    EXPECT_TRUE(dev->engineBusy(EngineKind::Execute));

    eq.drain();
    EXPECT_EQ(c->completedRef(), 1u);
    EXPECT_EQ(eq.now(), usec(100));
    EXPECT_EQ(meter.busyOf(1), usec(100));
}

TEST_F(DeviceFixture, FifoWithinChannel)
{
    build();
    auto *ctx = dev->createContext(1);
    auto *c = dev->createChannel(*ctx, RequestClass::Compute);

    std::vector<std::uint64_t> completions;
    dev->traceComplete = [&](Channel &, const GpuRequest &r, Tick, Tick) {
        completions.push_back(r.ref);
    };

    dev->submit(*c, req(*c, usec(10)));
    dev->submit(*c, req(*c, usec(10)));
    dev->submit(*c, req(*c, usec(10)));
    eq.drain();

    EXPECT_EQ(completions, (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST_F(DeviceFixture, RoundRobinAcrossChannels)
{
    build();
    auto *ctxa = dev->createContext(1);
    auto *ctxb = dev->createContext(2);
    auto *a = dev->createChannel(*ctxa, RequestClass::Compute);
    auto *b = dev->createChannel(*ctxb, RequestClass::Compute);

    // Large vs small request sizes: with per-request round-robin, the
    // large-request channel receives proportionally more device time.
    for (int i = 0; i < 10; ++i) {
        dev->submit(*a, req(*a, usec(100)));
        dev->submit(*b, req(*b, usec(10)));
    }
    eq.drain();

    EXPECT_EQ(meter.busyOf(1), 10 * usec(100));
    EXPECT_EQ(meter.busyOf(2), 10 * usec(10));
    // Switch overhead was paid for the alternation.
    EXPECT_GT(meter.totalSwitchOverhead(), 0);
}

TEST_F(DeviceFixture, ContextSwitchCostsAccrue)
{
    build();
    auto *ctxa = dev->createContext(1);
    auto *ctxb = dev->createContext(2);
    auto *a = dev->createChannel(*ctxa, RequestClass::Compute);
    auto *b = dev->createChannel(*ctxb, RequestClass::Compute);

    dev->submit(*a, req(*a, usec(10)));
    dev->submit(*b, req(*b, usec(10)));
    eq.drain();

    // One switch between the two contexts (first dispatch is free).
    const Tick sw = DeviceConfig::contextSwitchCost;
    EXPECT_EQ(meter.totalSwitchOverhead(), sw);
    EXPECT_EQ(eq.now(), usec(10) + sw + usec(10));
}

TEST_F(DeviceFixture, DmaOverlapsCompute)
{
    build();
    auto *ctx = dev->createContext(1);
    auto *c = dev->createChannel(*ctx, RequestClass::Compute);
    auto *d = dev->createChannel(*ctx, RequestClass::Dma);

    dev->submit(*c, req(*c, usec(100)));
    dev->submit(*d, req(*d, usec(100), RequestClass::Dma));
    eq.drain();

    // Both engines ran concurrently: elapsed ~100us, not 200us.
    EXPECT_EQ(eq.now(), usec(100));
    EXPECT_EQ(meter.busyOf(1), usec(200));
    EXPECT_EQ(meter.totalDmaBusy(), usec(100));
}

TEST_F(DeviceFixture, TriviaCoalesceWithFollowingRequest)
{
    build();
    auto *ctx = dev->createContext(1);
    auto *c = dev->createChannel(*ctx, RequestClass::Compute);

    std::vector<std::uint64_t> completions;
    dev->traceComplete = [&](Channel &, const GpuRequest &r, Tick, Tick) {
        completions.push_back(r.ref);
    };

    // Busy the engine so the trivia queue up behind it.
    dev->submit(*c, req(*c, usec(50)));
    GpuRequest t1 = req(*c, nsec(500), RequestClass::Trivial);
    GpuRequest t2 = req(*c, nsec(500), RequestClass::Trivial);
    GpuRequest main = req(*c, usec(10));
    dev->submit(*c, t1);
    dev->submit(*c, t2);
    dev->submit(*c, main);
    eq.drain();

    // The two trivia were absorbed into the following request: only
    // two completion events, and the counter lands on the last ref.
    EXPECT_EQ(completions.size(), 2u);
    EXPECT_EQ(c->completedRef(), main.ref);
    EXPECT_EQ(eq.now(), usec(50) + nsec(500) * 2 + usec(10));
}

TEST_F(DeviceFixture, ChannelPoolExhaustion)
{
    cfg.maxChannels = 4;
    build();
    auto *ctx = dev->createContext(1);
    for (int i = 0; i < 4; ++i)
        ASSERT_NE(dev->createChannel(*ctx, RequestClass::Compute), nullptr);

    EXPECT_EQ(dev->createChannel(*ctx, RequestClass::Compute), nullptr);
    EXPECT_EQ(dev->freeChannels(), 0u);
}

TEST_F(DeviceFixture, DestroyChannelFreesPoolSlot)
{
    cfg.maxChannels = 2;
    build();
    auto *ctx = dev->createContext(1);
    auto *a = dev->createChannel(*ctx, RequestClass::Compute);
    auto *b = dev->createChannel(*ctx, RequestClass::Compute);
    ASSERT_EQ(dev->createChannel(*ctx, RequestClass::Compute), nullptr);

    dev->destroyChannel(a);
    EXPECT_NE(dev->createChannel(*ctx, RequestClass::Compute), nullptr);
    (void)b;
}

TEST_F(DeviceFixture, InfiniteRequestOccupiesEngineUntilAbort)
{
    build();
    auto *ctx = dev->createContext(1);
    auto *c = dev->createChannel(*ctx, RequestClass::Compute);

    GpuRequest inf = req(*c, maxTick);
    dev->submit(*c, inf);
    eq.runFor(msec(10));
    EXPECT_TRUE(dev->engineBusy(EngineKind::Execute));
    EXPECT_EQ(c->completedRef(), 0u);

    dev->abortChannel(*c);
    eq.drain();
    EXPECT_FALSE(dev->engineBusy(EngineKind::Execute));
    // No reference-counter write for the aborted request.
    EXPECT_EQ(c->completedRef(), 0u);
    // The occupied time was still accounted to the offender.
    EXPECT_EQ(meter.busyOf(1), msec(10));
}

TEST_F(DeviceFixture, AbortUnblocksOtherChannels)
{
    build();
    auto *ctxa = dev->createContext(1);
    auto *ctxb = dev->createContext(2);
    auto *bad = dev->createChannel(*ctxa, RequestClass::Compute);
    auto *good = dev->createChannel(*ctxb, RequestClass::Compute);

    dev->submit(*bad, req(*bad, maxTick));
    dev->submit(*good, req(*good, usec(10)));
    eq.runFor(msec(5));
    EXPECT_EQ(good->completedRef(), 0u); // starved behind the hog

    dev->abortChannel(*bad);
    eq.drain();
    EXPECT_EQ(good->completedRef(), 1u);
    EXPECT_EQ(eq.now(),
              msec(5) + cfg.abortCleanupCost + cfg.contextSwitchCost +
                  usec(10));
}

TEST_F(DeviceFixture, AbortClearsQueuedRequests)
{
    build();
    auto *ctx = dev->createContext(1);
    auto *c = dev->createChannel(*ctx, RequestClass::Compute);
    dev->submit(*c, req(*c, usec(50)));
    dev->submit(*c, req(*c, usec(50)));
    dev->submit(*c, req(*c, usec(50)));
    eq.runFor(usec(10)); // first one mid-flight

    dev->abortChannel(*c);
    eq.drain();
    EXPECT_TRUE(c->ring().empty());
    EXPECT_EQ(c->completedRef(), 0u);
}

TEST_F(DeviceFixture, DestroyBusyChannelPanics)
{
    build();
    auto *ctx = dev->createContext(1);
    auto *c = dev->createChannel(*ctx, RequestClass::Compute);
    dev->submit(*c, req(*c, usec(50)));
    EXPECT_DEATH(dev->destroyChannel(c), "busy");
}

TEST_F(DeviceFixture, KernelCompletionHookObservesServiceTime)
{
    build();
    auto *ctx = dev->createContext(1);
    auto *c = dev->createChannel(*ctx, RequestClass::Compute);

    Tick seen_service = 0;
    std::uint64_t seen_ref = 0;
    c->kernelCompletionHook = [&](std::uint64_t ref, Tick, Tick service) {
        seen_ref = ref;
        seen_service = service;
    };

    dev->submit(*c, req(*c, usec(66)));
    eq.drain();
    EXPECT_EQ(seen_ref, 1u);
    EXPECT_EQ(seen_service, usec(66));
}

} // namespace
} // namespace neon
