/**
 * @file
 * Unit tests for round-robin arbitration: one request per channel
 * visit, whatever the channel's class or queue depth.
 */

#include <gtest/gtest.h>

#include <map>

#include "gpu/arbiter.hh"
#include "gpu/context.hh"

namespace neon
{
namespace
{

GpuRequest
req(std::uint64_t ref)
{
    GpuRequest r;
    r.ref = ref;
    r.serviceTime = usec(10);
    return r;
}

struct ArbiterFixture : public ::testing::Test
{
    GpuContext ctxA{1, 1};
    GpuContext ctxB{2, 2};

    void
    fill(Channel &c, int n)
    {
        for (int i = 0; i < n; ++i)
            c.ring().push(req(c.allocRef()));
    }

    /** Serve @p n picks and count how many each channel won. */
    std::map<int, int>
    tally(Arbiter &arb, int n)
    {
        std::map<int, int> counts;
        for (int i = 0; i < n; ++i) {
            Channel *c = arb.pick();
            if (!c)
                break;
            ++counts[c->id()];
            c->ring().pop();
            c->ring().push(req(c->allocRef())); // keep it saturated
        }
        return counts;
    }
};

TEST_F(ArbiterFixture, EmptyRotationYieldsNull)
{
    Arbiter arb;
    EXPECT_EQ(arb.pick(), nullptr);
}

TEST_F(ArbiterFixture, SkipsIdleChannels)
{
    Arbiter arb;
    Channel a(1, ctxA, RequestClass::Compute, 8);
    Channel b(2, ctxB, RequestClass::Compute, 8);
    arb.registerChannel(&a);
    arb.registerChannel(&b);
    fill(b, 1);
    EXPECT_EQ(arb.pick(), &b);
}

TEST_F(ArbiterFixture, AlternatesBetweenSaturatedComputeChannels)
{
    Arbiter arb;
    Channel a(1, ctxA, RequestClass::Compute, 8);
    Channel b(2, ctxB, RequestClass::Compute, 8);
    arb.registerChannel(&a);
    arb.registerChannel(&b);
    fill(a, 2);
    fill(b, 2);

    auto counts = tally(arb, 100);
    EXPECT_EQ(counts[1], 50);
    EXPECT_EQ(counts[2], 50);
}

TEST_F(ArbiterFixture, RoundRobinShareIsPerChannelNotPerRequestSize)
{
    // Three channels, equal visits regardless of queue depth.
    Arbiter arb;
    Channel a(1, ctxA, RequestClass::Compute, 64);
    Channel b(2, ctxB, RequestClass::Compute, 64);
    Channel c(3, ctxB, RequestClass::Compute, 64);
    arb.registerChannel(&a);
    arb.registerChannel(&b);
    arb.registerChannel(&c);
    fill(a, 30);
    fill(b, 2);
    fill(c, 2);

    auto counts = tally(arb, 99);
    EXPECT_EQ(counts[1], 33);
    EXPECT_EQ(counts[2], 33);
    EXPECT_EQ(counts[3], 33);
}

TEST_F(ArbiterFixture, NoPenaltyWhenConfiguredUniform)
{
    // Graphics and compute channels share the engine's visits evenly.
    Arbiter arb;
    Channel comp(1, ctxA, RequestClass::Compute, 8);
    Channel gfx(2, ctxB, RequestClass::Graphics, 8);
    arb.registerChannel(&comp);
    arb.registerChannel(&gfx);
    fill(comp, 2);
    fill(gfx, 2);

    auto counts = tally(arb, 100);
    EXPECT_EQ(counts[1], 50);
    EXPECT_EQ(counts[2], 50);
}

TEST_F(ArbiterFixture, RemoveChannelKeepsRotationConsistent)
{
    Arbiter arb;
    Channel a(1, ctxA, RequestClass::Compute, 8);
    Channel b(2, ctxB, RequestClass::Compute, 8);
    Channel c(3, ctxB, RequestClass::Compute, 8);
    arb.registerChannel(&a);
    arb.registerChannel(&b);
    arb.registerChannel(&c);
    fill(a, 1);
    fill(b, 1);
    fill(c, 1);

    EXPECT_EQ(arb.pick(), &a);
    arb.removeChannel(&b);
    EXPECT_EQ(arb.channelCount(), 2u);
    a.ring().pop();
    EXPECT_EQ(arb.pick(), &c);
}

} // namespace
} // namespace neon
