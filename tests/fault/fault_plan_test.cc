/**
 * @file
 * Unit tests for deterministic fault-plan generation: purity in
 * (config, device count, seed), time ordering, script merging, and
 * RNG-stream isolation from workload draws.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "fault/fault_plan.hh"
#include "sim/random.hh"

namespace neon
{
namespace
{

bool
samePlan(const std::vector<FaultEvent> &a, const std::vector<FaultEvent> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].at != b[i].at || a[i].kind != b[i].kind ||
            a[i].device != b[i].device || a[i].duration != b[i].duration)
            return false;
    }
    return true;
}

FaultPlanConfig
stochasticCfg()
{
    FaultPlanConfig cfg;
    cfg.enabled = true;
    cfg.horizon = sec(10);
    cfg.deathRatePerSec = 0.5;
    cfg.meanRepair = msec(100);
    cfg.stallRatePerSec = 2.0;
    cfg.meanStall = msec(5);
    cfg.hangRatePerSec = 1.0;
    return cfg;
}

TEST(FaultPlan, EmptyConfigYieldsEmptyPlan)
{
    FaultPlanConfig cfg;
    EXPECT_FALSE(cfg.any());
    EXPECT_TRUE(buildFaultPlan(cfg, 4, 42).empty());

    // Rates set but the master switch off: still nothing.
    FaultPlanConfig off = stochasticCfg();
    off.enabled = false;
    EXPECT_FALSE(off.any());
    EXPECT_TRUE(buildFaultPlan(off, 4, 42).empty());
}

TEST(FaultPlan, SameInputsSamePlan)
{
    const FaultPlanConfig cfg = stochasticCfg();
    const auto a = buildFaultPlan(cfg, 4, 42);
    const auto b = buildFaultPlan(cfg, 4, 42);
    ASSERT_FALSE(a.empty());
    EXPECT_TRUE(samePlan(a, b));
}

TEST(FaultPlan, DifferentSeedOrShapeChangesPlan)
{
    const FaultPlanConfig cfg = stochasticCfg();
    const auto base = buildFaultPlan(cfg, 4, 42);
    EXPECT_FALSE(samePlan(base, buildFaultPlan(cfg, 4, 43)));
    EXPECT_FALSE(samePlan(base, buildFaultPlan(cfg, 3, 42)));
}

TEST(FaultPlan, PlanIsTimeOrderedWithinHorizonAndDeviceRange)
{
    const FaultPlanConfig cfg = stochasticCfg();
    const auto plan = buildFaultPlan(cfg, 4, 7);
    ASSERT_FALSE(plan.empty());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_GE(plan[i].at, 0);
        EXPECT_LE(plan[i].at, cfg.horizon);
        EXPECT_LT(plan[i].device, 4u);
        if (i > 0) {
            EXPECT_LE(plan[i - 1].at, plan[i].at);
        }
    }
}

TEST(FaultPlan, ScriptMergedInOrder)
{
    FaultPlanConfig cfg = stochasticCfg();
    cfg.script = {
        {sec(20), FaultKind::DeviceDeath, 2, msec(300)},
        {msec(1), FaultKind::ChannelHang, 0, 0},
    };
    const auto plan = buildFaultPlan(cfg, 4, 42);

    int scriptedSeen = 0;
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (i > 0) {
            EXPECT_LE(plan[i - 1].at, plan[i].at);
        }
        if (plan[i].at == sec(20) && plan[i].kind == FaultKind::DeviceDeath &&
            plan[i].device == 2 && plan[i].duration == msec(300))
            ++scriptedSeen;
        if (plan[i].at == msec(1) && plan[i].kind == FaultKind::ChannelHang &&
            plan[i].device == 0)
            ++scriptedSeen;
    }
    EXPECT_EQ(scriptedSeen, 2);

    // A script alone (generator off) is a plan, verbatim but sorted.
    FaultPlanConfig scriptOnly;
    scriptOnly.script = cfg.script;
    EXPECT_TRUE(scriptOnly.any());
    const auto bare = buildFaultPlan(scriptOnly, 4, 42);
    ASSERT_EQ(bare.size(), 2u);
    EXPECT_EQ(bare[0].at, msec(1));
    EXPECT_EQ(bare[1].at, sec(20));
}

TEST(FaultPlan, GenerationDoesNotPerturbWorkloadStreams)
{
    // The plan draws only from the "fault.plan" named stream; the
    // workload streams derived from the same root stay bit-identical
    // whether or not a plan was built.
    Rng before = namedStream(42, "serve.arrivals");
    std::vector<std::uint64_t> clean;
    for (int i = 0; i < 32; ++i)
        clean.push_back(before.next());

    (void)buildFaultPlan(stochasticCfg(), 4, 42);

    Rng after = namedStream(42, "serve.arrivals");
    for (int i = 0; i < 32; ++i)
        EXPECT_EQ(after.next(), clean[static_cast<std::size_t>(i)]);
}

TEST(FaultPlan, KindNames)
{
    EXPECT_STREQ(faultKindName(FaultKind::DeviceStall), "stall");
    EXPECT_STREQ(faultKindName(FaultKind::DeviceDeath), "death");
    EXPECT_STREQ(faultKindName(FaultKind::ChannelHang), "hang");
}

} // namespace
} // namespace neon
