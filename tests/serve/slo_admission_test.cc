/**
 * @file
 * Unit tests for the predictive-shedding model: the pure fluid delay
 * kernel, per-class EWMA holding-time estimates, the drain-factor
 * discount, and the shed decision threshold.
 */

#include <gtest/gtest.h>

#include "serve/slo_admission.hh"

namespace neon
{
namespace
{

// The EWMA weight and estimate floor are fixed; the expectations below
// are worked out for these values.
static_assert(PredictiveShedConfig::holdAlpha == 0.2);
static_assert(PredictiveShedConfig::holdFloor == msec(1));

PredictiveShedConfig
shedCfg(double safety = 1.0)
{
    PredictiveShedConfig cfg;
    cfg.enabled = true;
    cfg.safety = safety;
    return cfg;
}

TEST(SloPredict, ZeroCapacityPredictsInfiniteDelay)
{
    // A fully-down fleet drains nothing: any queued work waits forever.
    EXPECT_EQ(SloAdmission::predictDelay(msec(1), 0, 0, 1.0), maxTick);
    EXPECT_EQ(SloAdmission::predictDelay(0, 0, 0, 1.0), maxTick);
}

TEST(SloPredict, DelayScalesInverselyWithCapacity)
{
    const Tick work = msec(80);
    EXPECT_EQ(SloAdmission::predictDelay(work, 0, 1, 1.0), msec(80));
    EXPECT_EQ(SloAdmission::predictDelay(work, 0, 2, 1.0), msec(40));
    EXPECT_EQ(SloAdmission::predictDelay(work, 0, 8, 1.0), msec(10));
}

TEST(SloPredict, ResidualAddsToQueuedWork)
{
    EXPECT_EQ(SloAdmission::predictDelay(msec(30), msec(10), 2, 1.0),
              msec(20));
}

TEST(SloPredict, DrainDiscountStretchesTheEstimate)
{
    // Half-speed fleet: the same queue takes twice as long to drain.
    const Tick full = SloAdmission::predictDelay(msec(40), 0, 2, 1.0);
    const Tick half = SloAdmission::predictDelay(msec(40), 0, 2, 0.5);
    EXPECT_EQ(half, 2 * full);
    // The clamp keeps a stalled fleet finite (ratio 0 -> 0.05 floor).
    const Tick stalled = SloAdmission::predictDelay(msec(40), 0, 2, 0.0);
    EXPECT_EQ(stalled, 20 * full);
    EXPECT_LT(stalled, maxTick);
}

TEST(SloHold, SeedPrimesFromLifetimeMeanWithFloor)
{
    SloAdmission m(shedCfg());
    m.seedHold("heavy", msec(50));
    m.seedHold("tiny", usec(10)); // below the 1 ms floor
    m.seedHold("unknown", 0);
    EXPECT_EQ(m.holdOf("heavy"), msec(50));
    EXPECT_EQ(m.holdOf("tiny"), msec(1));
    EXPECT_EQ(m.holdOf("unknown"), msec(1));
    // A class never seeded still reads the floor, never zero.
    EXPECT_EQ(m.holdOf("never-seen"), msec(1));
}

TEST(SloHold, EwmaFoldsObservationsDeterministically)
{
    SloAdmission m(shedCfg());
    m.seedHold("c", msec(10));
    m.noteHold("c", msec(30)); // 0.2*30 + 0.8*10 = 14
    EXPECT_EQ(m.holdOf("c"), msec(14));
    m.noteHold("c", msec(14)); // converged
    EXPECT_EQ(m.holdOf("c"), msec(14));
}

TEST(SloHold, EwmaConvergesTowardRepeatedObservation)
{
    SloAdmission m(shedCfg());
    m.seedHold("c", msec(100));
    for (int i = 0; i < 64; ++i)
        m.noteHold("c", msec(10));
    const Tick est = m.holdOf("c");
    EXPECT_GE(est, msec(10) - usec(10));
    EXPECT_LE(est, msec(11));
}

TEST(SloDrain, FirstSampleTakenDirectlyThenSmoothed)
{
    SloAdmission m(shedCfg());
    EXPECT_DOUBLE_EQ(m.drainFactor(), 1.0); // unsampled default
    m.noteDrainRatio(0.4);
    EXPECT_DOUBLE_EQ(m.drainFactor(), 0.4); // first sample, no blend
    m.noteDrainRatio(0.8); // 0.2*0.8 + 0.8*0.4
    EXPECT_DOUBLE_EQ(m.drainFactor(), 0.48);
}

TEST(SloDrain, RatioClampsIntoWorkingRange)
{
    SloAdmission m(shedCfg());
    m.noteDrainRatio(0.0);
    EXPECT_DOUBLE_EQ(m.drainFactor(), 0.05);
    SloAdmission m2(shedCfg());
    m2.noteDrainRatio(3.0); // overshoot (clock jitter) caps at nominal
    EXPECT_DOUBLE_EQ(m2.drainFactor(), 1.0);
}

TEST(SloDecide, ShedsOnlyPastTheBudget)
{
    SloAdmission m(shedCfg());
    // 40 ms of work over 2 slots -> 20 ms predicted.
    ShedDecision d = m.decide(msec(40), 0, 2, msec(25));
    EXPECT_FALSE(d.shed);
    EXPECT_EQ(d.predicted, msec(20));
    EXPECT_EQ(d.budget, msec(25));
    d = m.decide(msec(40), 0, 2, msec(15));
    EXPECT_TRUE(d.shed);
}

TEST(SloDecide, SafetyMarginShedsEarlier)
{
    // safety 2.0: a 20 ms prediction breaches a 30 ms budget.
    SloAdmission strict(shedCfg(2.0));
    EXPECT_TRUE(strict.decide(msec(40), 0, 2, msec(30)).shed);
    SloAdmission lax(shedCfg(1.0));
    EXPECT_FALSE(lax.decide(msec(40), 0, 2, msec(30)).shed);
}

TEST(SloDecide, ZeroBudgetNeverSheds)
{
    // No queue target configured for the class: the front door stays
    // open no matter how deep the backlog is.
    SloAdmission m(shedCfg());
    EXPECT_FALSE(m.decide(sec(10), sec(1), 1, 0).shed);
}

TEST(SloDecide, DisabledConfigNeverSheds)
{
    PredictiveShedConfig off;
    SloAdmission m(off);
    const ShedDecision d = m.decide(sec(10), sec(1), 1, msec(1));
    EXPECT_FALSE(d.shed);
    // The prediction is still reported for observability.
    EXPECT_GT(d.predicted, msec(1));
}

} // namespace
} // namespace neon
