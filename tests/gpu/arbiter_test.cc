/**
 * @file
 * Unit tests for round-robin arbitration: one request per channel
 * visit, whatever the channel's class or queue depth. A differential
 * test drives the arbiter and the modulo-indexed picker it replaced
 * through the same random register, remove, fill and pick sequences.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <vector>

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

/** The modulo-indexed round-robin picker, kept as the oracle. */
class ModuloArbiter
{
  public:
    void registerChannel(Channel *c) { rotation.push_back(c); }

    void
    removeChannel(Channel *c)
    {
        for (std::size_t i = 0; i < rotation.size(); ++i) {
            if (rotation[i] == c) {
                rotation.erase(rotation.begin() + i);
                if (cursor > i)
                    --cursor;
                if (cursor >= rotation.size())
                    cursor = 0;
                return;
            }
        }
    }

    Channel *
    pick()
    {
        const std::size_t n = rotation.size();
        for (std::size_t step = 0; step < n; ++step) {
            Channel *c = rotation[(cursor + step) % n];
            if (c->ring().empty())
                continue;
            cursor = (cursor + step + 1) % n;
            return c;
        }
        return nullptr;
    }

  private:
    std::vector<Channel *> rotation;
    std::size_t cursor = 0;
};

TEST_F(ArbiterFixture, PickOrderMatchesModuloOracle)
{
    constexpr int kChannels = 9;
    std::deque<Channel> pool;
    for (int id = 0; id < kChannels; ++id)
        pool.emplace_back(id, id % 2 ? ctxA : ctxB, RequestClass::Compute,
                          16);

    std::size_t picks = 0, hits = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        std::mt19937_64 rng(seed);
        Arbiter arb;
        ModuloArbiter oracle;
        std::vector<Channel *> registered;
        for (Channel &c : pool) {
            while (!c.ring().empty())
                c.ring().pop();
        }

        for (int op = 0; op < 2000; ++op) {
            Channel &c = pool[rng() % kChannels];
            const bool in = std::find(registered.begin(), registered.end(),
                                      &c) != registered.end();
            switch (rng() % 6) {
              case 0: // register (a removed channel may come back)
                if (!in) {
                    arb.registerChannel(&c);
                    oracle.registerChannel(&c);
                    registered.push_back(&c);
                }
                break;
              case 1: // remove, registered or not
                arb.removeChannel(&c);
                oracle.removeChannel(&c);
                std::erase(registered, &c);
                break;
              case 2: // give a channel work
                if (!c.ring().full())
                    c.ring().push(req(c.allocRef()));
                break;
              default: { // pick, and serve the winner's request
                Channel *got = arb.pick();
                ASSERT_EQ(got, oracle.pick())
                    << "seed " << seed << ", operation " << op;
                ++picks;
                if (got) {
                    ++hits;
                    got->ring().pop();
                }
                break;
              }
            }
            ASSERT_EQ(arb.channelCount(), registered.size());
        }
    }
    // Both outcomes are exercised: idle rotations and real winners.
    EXPECT_GT(hits, picks / 4);
    EXPECT_LT(hits, picks);
}

} // namespace
} // namespace neon
