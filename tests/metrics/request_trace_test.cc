/**
 * @file
 * Unit tests for the request tracer (Table 1 / Figure 2 machinery).
 */

#include <gtest/gtest.h>

#include "gpu/device.hh"
#include "metrics/request_trace.hh"
#include "sim/event_queue.hh"

namespace neon
{
namespace
{

struct TraceFixture : public ::testing::Test
{
    EventQueue eq;
    UsageMeter meter;
    DeviceConfig cfg;
    GpuDevice dev{eq, cfg, meter};
    RequestTrace trace;
    GpuContext *ctx = nullptr;
    Channel *chan = nullptr;

    void
    SetUp() override
    {
        trace.attach(dev);
        ctx = dev.createContext(7);
        chan = dev.createChannel(*ctx, RequestClass::Compute);
    }

    void
    submit(Tick service, bool awaited = true,
           RequestClass cls = RequestClass::Compute)
    {
        GpuRequest r;
        r.cls = cls;
        r.serviceTime = service;
        r.awaited = awaited;
        r.ref = chan->allocRef();
        dev.submit(*chan, r);
    }
};

TEST_F(TraceFixture, RecordsServiceTimes)
{
    submit(usec(50));
    eq.drain();
    submit(usec(150));
    eq.drain();

    const auto &pt = trace.of(7);
    EXPECT_EQ(pt.submissions, 2u);
    EXPECT_NEAR(pt.serviceAccumUs.mean(), 100.0, 0.01);
}

TEST_F(TraceFixture, InterArrivalHistogramFills)
{
    submit(usec(10));
    eq.runFor(usec(64)); // next submission 64us later -> bin 6
    submit(usec(10));
    eq.drain();

    const auto &pt = trace.of(7);
    EXPECT_EQ(pt.interArrivalUs.total(), 1u);
    EXPECT_EQ(pt.interArrivalUs.binCount(6), 1u);
}

TEST_F(TraceFixture, UnawaitedRequestsExcludedFromServiceStats)
{
    // A trivial request that lands while the engine is idle completes
    // on its own and must not pollute the awaited-service average.
    submit(nsec(500), false, RequestClass::Trivial);
    eq.drain();
    submit(usec(100));
    eq.drain();

    const auto &pt = trace.of(7);
    EXPECT_EQ(pt.submissions, 2u);
    EXPECT_EQ(pt.serviceAccumUs.count(), 1u);
    EXPECT_NEAR(pt.serviceAccumUs.mean(), 100.0, 0.01);
}

TEST_F(TraceFixture, ResetClears)
{
    submit(usec(10));
    eq.drain();
    trace.reset();
    EXPECT_FALSE(trace.has(7));
}

TEST_F(TraceFixture, MissingTaskPanics)
{
    EXPECT_DEATH(trace.of(999), "no trace");
}

} // namespace
} // namespace neon
