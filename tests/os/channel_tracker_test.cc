/**
 * @file
 * Unit tests for the initialization-phase channel tracker.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "os/channel_tracker.hh"

namespace neon
{
namespace
{

using State = ChannelTracker::ChannelState;

Vma
vma(VmaKind kind, int chan)
{
    return {kind, chan, 0x1000, 0x1000};
}

TEST(ChannelTracker, UntrackedByDefault)
{
    ChannelTracker t;
    EXPECT_EQ(t.state(1), State::Untracked);
    EXPECT_FALSE(t.isActive(1));
}

TEST(ChannelTracker, PartialUntilAllThreeVmas)
{
    ChannelTracker t;
    EXPECT_EQ(t.noteMmap(vma(VmaKind::CommandBuffer, 1)), State::Partial);
    EXPECT_EQ(t.noteMmap(vma(VmaKind::RingBuffer, 1)), State::Partial);
    EXPECT_EQ(t.noteMmap(vma(VmaKind::ChannelRegister, 1)), State::Active);
    EXPECT_TRUE(t.isActive(1));
}

TEST(ChannelTracker, AnyDiscoveryOrderActivates)
{
    std::vector<VmaKind> kinds = {VmaKind::CommandBuffer,
                                  VmaKind::RingBuffer,
                                  VmaKind::ChannelRegister};
    std::sort(kinds.begin(), kinds.end());
    int permutation = 0;
    do {
        ChannelTracker t;
        t.noteMmap(vma(kinds[0], 1));
        EXPECT_FALSE(t.isActive(1));
        t.noteMmap(vma(kinds[1], 1));
        EXPECT_FALSE(t.isActive(1));
        t.noteMmap(vma(kinds[2], 1));
        EXPECT_TRUE(t.isActive(1)) << "permutation " << permutation;
        ++permutation;
    } while (std::next_permutation(kinds.begin(), kinds.end()));
    EXPECT_EQ(permutation, 6);
}

TEST(ChannelTracker, DuplicateMmapsAreIdempotent)
{
    ChannelTracker t;
    t.noteMmap(vma(VmaKind::CommandBuffer, 1));
    t.noteMmap(vma(VmaKind::CommandBuffer, 1));
    EXPECT_EQ(t.state(1), State::Partial);
}

TEST(ChannelTracker, ChannelsTrackIndependently)
{
    ChannelTracker t;
    t.noteMmap(vma(VmaKind::CommandBuffer, 1));
    t.noteMmap(vma(VmaKind::RingBuffer, 1));
    t.noteMmap(vma(VmaKind::ChannelRegister, 1));
    t.noteMmap(vma(VmaKind::CommandBuffer, 2));
    EXPECT_TRUE(t.isActive(1));
    EXPECT_EQ(t.state(2), State::Partial);
    EXPECT_EQ(t.trackedCount(), 2u);
}

TEST(ChannelTracker, ForgetResetsChannel)
{
    ChannelTracker t;
    t.noteMmap(vma(VmaKind::CommandBuffer, 1));
    t.noteMmap(vma(VmaKind::RingBuffer, 1));
    t.noteMmap(vma(VmaKind::ChannelRegister, 1));
    t.forget(1);
    EXPECT_EQ(t.state(1), State::Untracked);
    EXPECT_EQ(t.trackedCount(), 0u);
}

} // namespace
} // namespace neon
