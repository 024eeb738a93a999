/**
 * @file
 * Unit tests for channel state: reference counters, waiters, doorbell
 * protection bits.
 */

#include <gtest/gtest.h>

#include <vector>

#include "gpu/channel.hh"
#include "gpu/context.hh"

namespace neon
{
namespace
{

struct ChannelFixture : public ::testing::Test
{
    GpuContext ctx{1, 42};
    Channel chan{7, ctx, RequestClass::Compute, 16};
};

TEST_F(ChannelFixture, Identity)
{
    EXPECT_EQ(chan.id(), 7);
    EXPECT_EQ(chan.context().taskId(), 42);
    EXPECT_EQ(chan.engine(), EngineKind::Execute);
}

TEST_F(ChannelFixture, DmaChannelsUseCopyEngine)
{
    Channel dma(8, ctx, RequestClass::Dma, 16);
    EXPECT_EQ(dma.engine(), EngineKind::Copy);
}

TEST_F(ChannelFixture, RefAllocationIsMonotone)
{
    EXPECT_EQ(chan.allocRef(), 1u);
    EXPECT_EQ(chan.allocRef(), 2u);
    EXPECT_EQ(chan.allocRef(), 3u);
    EXPECT_EQ(chan.lastAllocatedRef(), 3u);
}

TEST_F(ChannelFixture, CompletionAdvancesCounterMonotonically)
{
    chan.complete(5);
    EXPECT_EQ(chan.completedRef(), 5u);
    chan.complete(3); // stale write must not move the counter back
    EXPECT_EQ(chan.completedRef(), 5u);
    chan.complete(9);
    EXPECT_EQ(chan.completedRef(), 9u);
}

TEST_F(ChannelFixture, WaitersFireWhenTargetReached)
{
    std::vector<int> fired;
    chan.waitRef(3, [&] { fired.push_back(3); });
    chan.waitRef(5, [&] { fired.push_back(5); });

    chan.complete(2);
    EXPECT_TRUE(fired.empty());

    chan.complete(3);
    EXPECT_EQ(fired, (std::vector<int>{3}));

    chan.complete(7);
    EXPECT_EQ(fired, (std::vector<int>{3, 5}));
}

TEST_F(ChannelFixture, MultipleWaitersOnSameRef)
{
    int count = 0;
    chan.waitRef(2, [&] { ++count; });
    chan.waitRef(2, [&] { ++count; });
    chan.complete(2);
    EXPECT_EQ(count, 2);
}

TEST_F(ChannelFixture, WaiterFiresOnceOnly)
{
    int count = 0;
    chan.waitRef(1, [&] { ++count; });
    chan.complete(1);
    chan.complete(2);
    EXPECT_EQ(count, 1);
}

TEST_F(ChannelFixture, WaiterMayRegisterWaitersFromItsCallback)
{
    // The callback grows the waiter list far past its capacity, which
    // relocates every slot, its own included. complete() moves each
    // waiter out before calling it, so the captures the callback reads
    // after the growth are still its own (ASan flags the alternative).
    std::vector<int> fired;
    const std::vector<int> tail{1, 1000};
    chan.waitRef(1, [this, &fired, tail] {
        for (int r = 2; r <= 65; ++r) {
            chan.waitRef(static_cast<std::uint64_t>(r),
                         [&fired, r] { fired.push_back(r); });
        }
        fired.insert(fired.end(), tail.begin(), tail.end());
    });

    chan.complete(1);
    EXPECT_EQ(fired, (std::vector<int>{1, 1000}));

    chan.complete(65);
    ASSERT_EQ(fired.size(), 66u);
    for (int r = 2; r <= 65; ++r)
        EXPECT_EQ(fired[static_cast<std::size_t>(r)], r);
}

TEST_F(ChannelFixture, DoorbellStartsProtected)
{
    EXPECT_FALSE(chan.doorbell().present());
}

TEST_F(ChannelFixture, DoorbellToggleCountsTransitions)
{
    auto &bell = chan.doorbell();
    bell.setPresent(true);
    bell.setPresent(true); // no-op, not a toggle
    bell.setPresent(false);
    EXPECT_EQ(bell.toggles(), 2u);
}

TEST_F(ChannelFixture, DoorbellAccessCounters)
{
    auto &bell = chan.doorbell();
    bell.noteDirectWrite();
    bell.noteDirectWrite();
    bell.noteFault();
    EXPECT_EQ(bell.directWrites(), 2u);
    EXPECT_EQ(bell.faults(), 1u);
}

TEST_F(ChannelFixture, DrainedReflectsQueueAndEngine)
{
    EXPECT_TRUE(chan.drained());
    GpuRequest r;
    r.ref = chan.allocRef();
    chan.ring().push(r);
    EXPECT_FALSE(chan.drained());
    chan.ring().pop();
    chan.setBusyOnDevice(true);
    EXPECT_FALSE(chan.drained());
    chan.setBusyOnDevice(false);
    EXPECT_TRUE(chan.drained());
}

} // namespace
} // namespace neon
