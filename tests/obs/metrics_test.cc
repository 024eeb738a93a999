/**
 * @file
 * Unit tests for the metrics registry: probe registration,
 * virtual-time sampling (driven by a Periodic, as the Observer does),
 * trace-ring mirroring, and the CSV dump.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"
#include "sim/periodic.hh"

namespace neon
{
namespace
{

using namespace obs;

TEST(Metrics, RegistrationIsIdempotent)
{
    // Registering a name again keeps its one series and replaces the
    // callback behind it.
    EventQueue eq;
    MetricsRegistry reg;
    reg.probe("m.first", [] { return 1.0; });
    reg.probe("m.other", [] { return 3.0; });
    reg.probe("m.first", [] { return 2.5; });

    ASSERT_EQ(reg.series().size(), 2u);
    EXPECT_EQ(reg.series()[0].name, "m.first");
    EXPECT_EQ(reg.series()[1].name, "m.other");

    reg.sampleNow(eq);
    ASSERT_EQ(reg.series()[0].samples.size(), 1u);
    EXPECT_DOUBLE_EQ(reg.series()[0].samples[0].value, 2.5);
    EXPECT_DOUBLE_EQ(reg.series()[1].samples[0].value, 3.0);
}

TEST(Metrics, SamplingCadenceRecordsEveryMetric)
{
    EventQueue eq;
    MetricsRegistry reg;
    std::uint64_t events = 0;
    int depth = 0;
    reg.probe("events", [&events] { return static_cast<double>(events); });
    reg.probe("depth", [&depth] { return static_cast<double>(depth); });
    int probe_calls = 0;
    reg.probe("lag", [&probe_calls] {
        ++probe_calls;
        return 7.0;
    });

    // Simulated activity: the count grows once per 100us, the depth
    // tracks the current step index.
    for (int i = 1; i <= 10; ++i) {
        eq.schedule(usec(100) * i, [&events, &depth, i] {
            events += 2;
            depth = i;
        });
    }

    Periodic sampler(eq, usec(250), [&] { reg.sampleNow(eq); });
    sampler.start();
    eq.runFor(msec(1));
    sampler.stop();

    ASSERT_EQ(reg.series().size(), 3u);
    const MetricSeries &es = reg.series()[0];
    EXPECT_EQ(es.name, "events");
    ASSERT_EQ(es.samples.size(), 4u); // t=250,500,750,1000us
    EXPECT_EQ(es.samples[0].when, usec(250));
    EXPECT_DOUBLE_EQ(es.samples[0].value, 4.0);  // after 2 ticks
    EXPECT_DOUBLE_EQ(es.samples[3].value, 20.0); // after all 10

    const MetricSeries &ds = reg.series()[1];
    EXPECT_DOUBLE_EQ(ds.samples[0].value, 2.0);
    EXPECT_DOUBLE_EQ(ds.samples[3].value, 10.0);

    const MetricSeries &ls = reg.series()[2];
    EXPECT_EQ(probe_calls, 4);
    for (const auto &s : ls.samples)
        EXPECT_DOUBLE_EQ(s.value, 7.0);
}

TEST(Metrics, SamplesMirrorIntoTraceRingWhenCounterCategoryOn)
{
    EventQueue eq;
    TraceRecorder rec(256);
    setTraceSink(&rec, static_cast<std::uint32_t>(TraceCategory::Counter),
                 &eq);

    MetricsRegistry reg;
    reg.probe("mirrored", [] { return 42.5; });
    Periodic sampler(eq, usec(100), [&] { reg.sampleNow(eq); });
    sampler.start();
    eq.runFor(usec(350)); // 3 samples
    setTraceSink(nullptr, 0);

    const auto snap = rec.snapshot();
    ASSERT_EQ(snap.size(), 3u);
    for (const auto &r : snap) {
        EXPECT_EQ(r.kind, TraceKind::CounterVal);
        EXPECT_EQ(traceNameOf(r.name), "mirrored");
        EXPECT_DOUBLE_EQ(std::bit_cast<double>(r.arg0), 42.5);
    }
}

TEST(Metrics, NoMirroringWhenCounterCategoryOff)
{
    EventQueue eq;
    TraceRecorder rec(256);
    setTraceSink(&rec, static_cast<std::uint32_t>(TraceCategory::Sched),
                 &eq);

    MetricsRegistry reg;
    reg.probe("silent", [] { return 1.0; });
    Periodic sampler(eq, usec(100), [&] { reg.sampleNow(eq); });
    sampler.start();
    eq.runFor(usec(500));
    setTraceSink(nullptr, 0);

    EXPECT_EQ(rec.written(), 0u);
    EXPECT_EQ(reg.series()[0].samples.size(), 5u); // series still fill
}

TEST(Metrics, CsvDumpAlignsSeriesByRow)
{
    EventQueue eq;
    MetricsRegistry reg;
    reg.probe("a", [] { return 1.0; });
    reg.probe("b", [] { return 0.5; });
    Periodic sampler(eq, usec(10), [&] { reg.sampleNow(eq); });
    sampler.start();
    eq.runFor(usec(30));

    std::ostringstream os;
    reg.printCsv(os);
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, "time_us,a,b");
    std::vector<std::string> rows;
    while (std::getline(is, line)) {
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 2);
        rows.push_back(line);
    }
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0], "10,1,0.5");
    EXPECT_EQ(rows[2], "30,1,0.5");
}

} // namespace
} // namespace neon
