/**
 * @file
 * Unit tests for the channel ring buffer.
 */

#include <gtest/gtest.h>

#include "gpu/ring_buffer.hh"

namespace neon
{
namespace
{

GpuRequest
req(std::uint64_t ref, Tick service = usec(10))
{
    GpuRequest r;
    r.ref = ref;
    r.serviceTime = service;
    return r;
}

TEST(RingBuffer, StartsEmpty)
{
    RingBuffer rb(4);
    EXPECT_TRUE(rb.empty());
    EXPECT_FALSE(rb.full());
    EXPECT_EQ(rb.size(), 0u);
    EXPECT_EQ(rb.capacity(), 4u);
}

TEST(RingBuffer, FifoOrder)
{
    RingBuffer rb(8);
    for (std::uint64_t i = 1; i <= 5; ++i)
        ASSERT_TRUE(rb.push(req(i)));
    for (std::uint64_t i = 1; i <= 5; ++i)
        EXPECT_EQ(rb.pop().ref, i);
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, RejectsWhenFull)
{
    RingBuffer rb(2);
    EXPECT_TRUE(rb.push(req(1)));
    EXPECT_TRUE(rb.push(req(2)));
    EXPECT_TRUE(rb.full());
    EXPECT_FALSE(rb.push(req(3)));
    EXPECT_EQ(rb.size(), 2u);
}

TEST(RingBuffer, FrontDoesNotPop)
{
    RingBuffer rb(4);
    rb.push(req(7));
    EXPECT_EQ(rb.front().ref, 7u);
    EXPECT_EQ(rb.size(), 1u);
    EXPECT_EQ(rb.pop().ref, 7u);
}

TEST(RingBuffer, ClearDropsEverything)
{
    RingBuffer rb(4);
    rb.push(req(1));
    rb.push(req(2));
    rb.clear();
    EXPECT_TRUE(rb.empty());
    EXPECT_TRUE(rb.push(req(3)));
}

TEST(RingBuffer, ReusableAfterDrain)
{
    RingBuffer rb(2);
    for (int round = 0; round < 100; ++round) {
        ASSERT_TRUE(rb.push(req(2 * round + 1)));
        ASSERT_TRUE(rb.push(req(2 * round + 2)));
        ASSERT_TRUE(rb.full());
        rb.pop();
        rb.pop();
        ASSERT_TRUE(rb.empty());
    }
}

TEST(RingBuffer, FifoAcrossManyWraps)
{
    // A depth that never reaches the first ring size (4 entries) makes
    // head and tail wrap it over and over without growing it.
    RingBuffer rb(512);
    std::uint64_t next_in = 1, next_out = 1;
    for (int round = 0; round < 1000; ++round) {
        for (int i = 0; i < 3; ++i)
            ASSERT_TRUE(rb.push(req(next_in++)));
        for (int i = 0; i < 3; ++i)
            ASSERT_EQ(rb.pop().ref, next_out++);
    }
    EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, GrowsWhileWrapped)
{
    // Leave the head mid-ring so the live entries straddle the end of
    // the storage, then push past its size: growth must unwrap them in
    // FIFO order.
    RingBuffer rb(64);
    std::uint64_t next_in = 1, next_out = 1;
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(rb.push(req(next_in++)));
    for (int i = 0; i < 2; ++i)
        ASSERT_EQ(rb.pop().ref, next_out++);
    for (int depth = 1; depth < 40; ++depth) {
        ASSERT_TRUE(rb.push(req(next_in++)));
        ASSERT_EQ(rb.front().ref, next_out);
    }
    EXPECT_EQ(rb.size(), 40u);
    while (!rb.empty())
        ASSERT_EQ(rb.pop().ref, next_out++);
    EXPECT_EQ(next_out, next_in);
}

TEST(RingBuffer, ClearMidWrapRestartsCleanly)
{
    RingBuffer rb(8);
    for (std::uint64_t i = 1; i <= 3; ++i)
        rb.push(req(i));
    rb.pop();
    rb.pop();
    rb.push(req(4));
    rb.push(req(5)); // wraps the first ring
    rb.clear();
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.size(), 0u);
    for (std::uint64_t i = 10; i < 18; ++i)
        ASSERT_TRUE(rb.push(req(i)));
    EXPECT_TRUE(rb.full());
    for (std::uint64_t i = 10; i < 18; ++i)
        EXPECT_EQ(rb.pop().ref, i);
}

TEST(RingBuffer, FullAtCapacityAfterGrowth)
{
    // A capacity that is not a power of two still bounds the depth,
    // also after the storage has grown past it.
    RingBuffer rb(6);
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t i = 0; i < rb.capacity(); ++i) {
            ASSERT_FALSE(rb.full());
            ASSERT_TRUE(rb.push(req(i)));
        }
        EXPECT_TRUE(rb.full());
        EXPECT_EQ(rb.size(), rb.capacity());
        EXPECT_FALSE(rb.push(req(99)));
        rb.pop();
        EXPECT_FALSE(rb.full());
        ASSERT_TRUE(rb.push(req(7)));
        EXPECT_TRUE(rb.full());
        while (!rb.empty())
            rb.pop();
    }
}

} // namespace
} // namespace neon
