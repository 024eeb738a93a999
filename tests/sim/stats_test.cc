/**
 * @file
 * Unit tests for accumulators and log2 histograms.
 */

#include <gtest/gtest.h>

#include "sim/stats.hh"

namespace neon
{
namespace
{

TEST(Accum, EmptyIsZero)
{
    Accum a;
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Accum, BasicMoments)
{
    Accum a;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        a.add(v);
    EXPECT_EQ(a.count(), 8u);
    EXPECT_DOUBLE_EQ(a.mean(), 5.0);
}

TEST(Accum, ResetClears)
{
    Accum a;
    a.add(5.0);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(Log2Histogram, BinPlacement)
{
    Log2Histogram h(10);
    h.add(0.5);  // bin 0 (sub-microsecond)
    h.add(1.0);  // bin 0
    h.add(2.0);  // bin 1
    h.add(3.9);  // bin 1
    h.add(4.0);  // bin 2
    h.add(1023); // bin 9
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(1), 2u);
    EXPECT_EQ(h.binCount(2), 1u);
    EXPECT_EQ(h.binCount(9), 1u);
    EXPECT_EQ(h.total(), 6u);
}

TEST(Log2Histogram, ClampsToMaxBin)
{
    Log2Histogram h(4);
    h.add(1e9);
    EXPECT_EQ(h.binCount(4), 1u);
}

TEST(Log2Histogram, CdfIsMonotoneAndEndsAt100)
{
    Log2Histogram h(10);
    for (double v : {1.0, 3.0, 9.0, 80.0, 500.0})
        h.add(v);
    double prev = 0.0;
    for (unsigned b = 0; b <= h.maxBin(); ++b) {
        double c = h.cdfPercent(b);
        EXPECT_GE(c, prev);
        prev = c;
    }
    EXPECT_DOUBLE_EQ(h.cdfPercent(h.maxBin()), 100.0);
}

TEST(Log2Histogram, EmptyCdfIsZero)
{
    Log2Histogram h(5);
    EXPECT_DOUBLE_EQ(h.cdfPercent(5), 0.0);
}

} // namespace
} // namespace neon
