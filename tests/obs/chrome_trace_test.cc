/**
 * @file
 * Unit tests for the Chrome trace-event export: lane assignment, span
 * pairing (orphan Ends dropped, dangling Begins closed), async/flow
 * binding by session id, counter values, and JSON well-formedness.
 */

#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <sstream>

#include "obs/chrome_trace.hh"

namespace neon
{
namespace
{

using namespace obs;

TraceRecord
rec(Tick when, const char *name, TraceKind kind, std::int16_t device,
    std::int64_t a0 = 0, std::int64_t a1 = 0, std::int32_t session = -1)
{
    TraceRecord r;
    r.when = when;
    r.name = internTraceName(name);
    r.cat = 1; // Sched
    r.kind = kind;
    r.device = device;
    r.session = session;
    r.arg0 = a0;
    r.arg1 = a1;
    return r;
}

/** Every track (pid, tid) must have non-decreasing timestamps. */
void
expectTrackMonotone(const ChromeTimeline &tl)
{
    std::map<std::pair<std::uint32_t, std::uint32_t>, double> last;
    for (const auto &e : tl.events) {
        auto [it, fresh] = last.try_emplace({e.pid, e.tid}, e.ts);
        if (!fresh) {
            EXPECT_GE(e.ts, it->second)
                << e.name << " on pid " << e.pid << " tid " << e.tid;
            it->second = e.ts;
        }
    }
}

TEST(ChromeTrace, SpansPairUpPerDeviceLane)
{
    const auto tl = buildChromeEvents({
        rec(usec(1), "span.x", TraceKind::Begin, 0),
        rec(usec(2), "span.y", TraceKind::Begin, 0), // overlaps on own lane
        rec(usec(3), "span.x", TraceKind::End, 0),
        rec(usec(4), "span.y", TraceKind::End, 0),
        rec(usec(5), "span.x", TraceKind::Begin, 1), // other device track
        rec(usec(6), "span.x", TraceKind::End, 1),
    });

    ASSERT_EQ(tl.events.size(), 6u);
    EXPECT_EQ(tl.processCount, 3u); // global + device0 + device1

    // x and y live on different lanes of pid 1; device 1's x elsewhere.
    const auto &ev = tl.events;
    EXPECT_EQ(ev[0].ph, 'B');
    EXPECT_EQ(ev[0].pid, 1u);
    EXPECT_EQ(ev[2].ph, 'E');
    EXPECT_EQ(ev[2].tid, ev[0].tid);
    EXPECT_NE(ev[1].tid, ev[0].tid);
    EXPECT_EQ(ev[4].pid, 2u);
    expectTrackMonotone(tl);
}

TEST(ChromeTrace, OrphanEndIsDroppedNotEmitted)
{
    // The Begin fell off the ring: only the Begin-less End arrives.
    const auto tl = buildChromeEvents({
        rec(usec(1), "span.orphan", TraceKind::End, 0),
        rec(usec(2), "span.ok", TraceKind::Begin, 0),
        rec(usec(3), "span.ok", TraceKind::End, 0),
    });

    std::size_t begins = 0, ends = 0;
    for (const auto &e : tl.events) {
        begins += e.ph == 'B';
        ends += e.ph == 'E';
    }
    EXPECT_EQ(begins, 1u);
    EXPECT_EQ(ends, 1u);
}

TEST(ChromeTrace, DanglingBeginClosedAtLastTimestamp)
{
    const auto tl = buildChromeEvents({
        rec(usec(1), "span.open", TraceKind::Begin, 0),
        rec(usec(9), "mark", TraceKind::Instant, 0),
    });

    const ChromeEvent *close = nullptr;
    for (const auto &e : tl.events) {
        if (e.ph == 'E' && e.name == "span.open")
            close = &e;
    }
    ASSERT_NE(close, nullptr);
    EXPECT_DOUBLE_EQ(close->ts, toUsec(usec(9)));
    expectTrackMonotone(tl);
}

TEST(ChromeTrace, AsyncAndFlowEventsBindBySessionId)
{
    const auto tl = buildChromeEvents({
        rec(usec(1), "session", TraceKind::AsyncBegin, -1, 0, 0, 42),
        rec(usec(2), "session.flow", TraceKind::FlowStart, 0, 0, 0, 42),
        rec(usec(3), "session.flow", TraceKind::FlowStep, 1, 0, 0, 42),
        rec(usec(4), "session.flow", TraceKind::FlowEnd, 1, 0, 0, 42),
        rec(usec(5), "session", TraceKind::AsyncEnd, 1, 0, 0, 42),
    });

    ASSERT_EQ(tl.events.size(), 5u);
    // Async events live on the global sessions lane regardless of the
    // device the record carried; flows ride the device tracks.
    EXPECT_EQ(tl.events[0].ph, 'b');
    EXPECT_EQ(tl.events[0].pid, 0u);
    EXPECT_EQ(tl.events[4].ph, 'e');
    EXPECT_EQ(tl.events[4].pid, 0u);
    EXPECT_EQ(tl.events[1].ph, 's');
    EXPECT_EQ(tl.events[1].pid, 1u);
    EXPECT_EQ(tl.events[2].ph, 't');
    EXPECT_EQ(tl.events[2].pid, 2u);
    EXPECT_EQ(tl.events[3].ph, 'f');
    for (const auto &e : tl.events)
        EXPECT_EQ(e.id, 42);
}

TEST(ChromeTrace, CounterValuesRoundTripThroughBitCast)
{
    TraceRecord r = rec(usec(1), "queue_depth", TraceKind::CounterVal, -1);
    r.arg0 = std::bit_cast<std::int64_t>(3.75);
    const auto tl = buildChromeEvents({r});

    ASSERT_EQ(tl.events.size(), 1u);
    EXPECT_EQ(tl.events[0].ph, 'C');
    EXPECT_EQ(tl.events[0].pid, 0u);
    ASSERT_TRUE(tl.events[0].hasValue);
    EXPECT_DOUBLE_EQ(tl.events[0].value, 3.75);
}

TEST(ChromeTrace, JsonEscapeHandlesSpecials)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb"), "a\\nb");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

/**
 * Minimal structural JSON check: braces/brackets balance outside of
 * string literals and the document is a single object. The CI step
 * additionally validates a real trace with python's json module.
 */
void
expectBalancedJson(const std::string &s)
{
    int depth = 0;
    bool in_string = false, escaped = false;
    for (char c : s) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']') {
            --depth;
            ASSERT_GE(depth, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(depth, 0);
}

TEST(ChromeTrace, WriterEmitsBalancedJsonWithTrackMetadata)
{
    TraceRecorder ring(64);
    ring.push(rec(usec(1), "span.w", TraceKind::Begin, 0, 7, 8));
    ring.push(rec(usec(2), "span.w", TraceKind::End, 0));
    ring.push(rec(usec(3), "mark \"quoted\"", TraceKind::Instant, 1));

    std::ostringstream os;
    writeChromeTrace(os, buildChromeEvents(ring.snapshot()));
    const std::string out = os.str();

    expectBalancedJson(out);
    EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(out.find("\"process_name\""), std::string::npos);
    EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(out.find("\"device0\""), std::string::npos);
    EXPECT_NE(out.find("\"device1\""), std::string::npos);
    EXPECT_NE(out.find("mark \\\"quoted\\\""), std::string::npos);
}

} // namespace
} // namespace neon
