/**
 * @file
 * Unit tests for the trace plane: ring-buffer wrap semantics, name
 * interning, category gating, and the NEON_TRACE macro's disabled
 * path recording nothing.
 */

#include <gtest/gtest.h>

#include "obs/trace.hh"
#include "sim/event_queue.hh"

namespace neon
{
namespace
{

using namespace obs;

/** RAII guard so a failing test never leaves a stale sink installed. */
struct SinkGuard
{
    ~SinkGuard() { setTraceSink(nullptr, 0); }
};

TEST(TraceRecorder, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(TraceRecorder(1).capacity(), 64u);   // floor is 64
    EXPECT_EQ(TraceRecorder(64).capacity(), 64u);
    EXPECT_EQ(TraceRecorder(65).capacity(), 128u);
    EXPECT_EQ(TraceRecorder(1000).capacity(), 1024u);
}

TEST(TraceRecorder, WrapKeepsNewestAndCountsDrops)
{
    TraceRecorder rec(64);
    for (std::int64_t i = 0; i < 100; ++i) {
        TraceRecord r;
        r.arg0 = i;
        rec.push(r);
    }
    EXPECT_EQ(rec.written(), 100u);
    EXPECT_EQ(rec.size(), 64u);
    EXPECT_EQ(rec.dropped(), 36u);

    // The snapshot holds exactly the newest 64 records, oldest first.
    const auto snap = rec.snapshot();
    ASSERT_EQ(snap.size(), 64u);
    for (std::size_t i = 0; i < snap.size(); ++i)
        EXPECT_EQ(snap[i].arg0, static_cast<std::int64_t>(36 + i));

    rec.clear();
    EXPECT_EQ(rec.size(), 0u);
    EXPECT_EQ(rec.dropped(), 0u);
    EXPECT_EQ(rec.capacity(), 64u);
}

TEST(TraceNames, InterningIsStableAndSurvivesWrap)
{
    const std::uint16_t a = internTraceName("test.intern_a");
    const std::uint16_t b = internTraceName("test.intern_b");
    EXPECT_NE(a, b);
    EXPECT_EQ(traceNameOf(a), "test.intern_a");
    EXPECT_EQ(traceNameOf(b), "test.intern_b");

    // Ids are process-global: wrapping a ring doesn't perturb them.
    TraceRecorder rec(64);
    for (int i = 0; i < 200; ++i) {
        TraceRecord r;
        r.name = i % 2 ? a : b;
        rec.push(r);
    }
    EXPECT_EQ(internTraceName("test.intern_a"), a);
    EXPECT_EQ(internTraceName("test.intern_b"), b);
    for (const auto &r : rec.snapshot())
        EXPECT_TRUE(r.name == a || r.name == b);
}

TEST(TraceMacro, DisabledCategoriesRecordNothing)
{
    SinkGuard guard;
    TraceRecorder rec(64);

    // No sink installed: every category is off.
    EXPECT_FALSE(traceEnabled(TraceCategory::Sched));
    NEON_TRACE(TraceCategory::Sched, TraceKind::Instant, "test.off",
               TraceIds{}, 1, 2);
    EXPECT_EQ(rec.written(), 0u);

    // Sink installed for Serve only: Sched points still record nothing.
    setTraceSink(&rec, static_cast<std::uint32_t>(TraceCategory::Serve));
    EXPECT_TRUE(traceEnabled(TraceCategory::Serve));
    EXPECT_FALSE(traceEnabled(TraceCategory::Sched));
    NEON_TRACE(TraceCategory::Sched, TraceKind::Instant, "test.off",
               TraceIds{}, 1, 2);
    EXPECT_EQ(rec.written(), 0u);

    NEON_TRACE(TraceCategory::Serve, TraceKind::Instant, "test.on",
               TraceIds{}, 1, 2);
    EXPECT_EQ(rec.written(), 1u);
}

TEST(TraceMacro, RecordsCarryClockIdsAndArgs)
{
    SinkGuard guard;
    EventQueue eq;
    TraceRecorder rec(64);
    // Default mask: SimCore stays off so the event-queue step itself
    // doesn't add eq.step records alongside the one under test.
    setTraceSink(&rec, defaultTraceCategories, &eq);

    eq.schedule(usec(5), [] {
        NEON_TRACE(TraceCategory::Fleet, TraceKind::Begin, "test.full",
                   (TraceIds{2, 17, 99}), -4, 1234567890123ll);
    });
    eq.runFor(usec(10));

    const auto snap = rec.snapshot();
    ASSERT_EQ(snap.size(), 1u);
    const TraceRecord &r = snap[0];
    EXPECT_EQ(r.when, usec(5));
    EXPECT_EQ(r.category(), TraceCategory::Fleet);
    EXPECT_EQ(r.kind, TraceKind::Begin);
    EXPECT_EQ(traceNameOf(r.name), "test.full");
    EXPECT_EQ(r.device, 2);
    EXPECT_EQ(r.pid, 17);
    EXPECT_EQ(r.session, 99);
    EXPECT_EQ(r.arg0, -4);
    EXPECT_EQ(r.arg1, 1234567890123ll);
}

TEST(TraceSink, UninstallDeactivatesEveryCategory)
{
    SinkGuard guard;
    TraceRecorder rec(64);
    setTraceSink(&rec, allTraceCategories);
    EXPECT_EQ(traceSink(), &rec);
    EXPECT_TRUE(traceEnabled(TraceCategory::SimCore));

    setTraceSink(nullptr, allTraceCategories); // mask forced to 0
    EXPECT_EQ(traceSink(), nullptr);
    for (std::uint32_t bit = 1; bit < (1u << 7); bit <<= 1) {
        EXPECT_FALSE(traceEnabled(static_cast<TraceCategory>(bit)));
    }
}

TEST(TraceRecord, StaysPodLean)
{
    static_assert(sizeof(TraceRecord) == 40);
    static_assert(std::is_trivially_copyable_v<TraceRecord>);
}

} // namespace
} // namespace neon
