/**
 * @file
 * Zero-overhead-when-off trace plane.
 *
 * Trace points are compiled in everywhere and gated at runtime by a
 * category bitmask: the disabled path of NEON_TRACE() is a single load
 * and predictable branch on `obs::detail::activeMask`, with no
 * allocation, no formatting, and no function call. When a category is
 * enabled, the point appends one fixed-size POD TraceRecord (virtual
 * timestamp, category, interned name id, device/task/session ids, two
 * payload args) to a fixed-capacity ring buffer that overwrites the
 * oldest records on wrap — overwrites are counted, never silent.
 *
 * String names never travel with records: each trace point interns its
 * literal once (process-global table, ids stable for the process
 * lifetime) and records carry the 16-bit id. This keeps the enabled
 * path allocation-free after the first hit, matching the
 * inline_function.hh hot-path discipline of the event core.
 */

#ifndef NEON_OBS_TRACE_HH
#define NEON_OBS_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace neon
{

class EventQueue;

namespace obs
{

/** Trace categories: one bit each, combinable into a mask. */
enum class TraceCategory : std::uint32_t
{
    SimCore = 1u << 0, ///< event-queue step / compaction
    Sched = 1u << 1,   ///< engage/disengage, timeslice, vtime, denial
    Kernel = 1u << 2,  ///< doorbell, park/release, poll, channel, kill
    Device = 1u << 3,  ///< execute/DMA engine dispatch and completion
    Fleet = 1u << 4,   ///< placement, migration, retirement
    Serve = 1u << 5,   ///< session lifecycle, admission, global clock
    Counter = 1u << 6, ///< sampled metric values (counter tracks)
    Fault = 1u << 7,   ///< injected faults, watchdog kills, failover
};

/** Every category except the very hot per-event SimCore points. */
constexpr std::uint32_t defaultTraceCategories =
    static_cast<std::uint32_t>(TraceCategory::Sched) |
    static_cast<std::uint32_t>(TraceCategory::Kernel) |
    static_cast<std::uint32_t>(TraceCategory::Device) |
    static_cast<std::uint32_t>(TraceCategory::Fleet) |
    static_cast<std::uint32_t>(TraceCategory::Serve) |
    static_cast<std::uint32_t>(TraceCategory::Counter) |
    static_cast<std::uint32_t>(TraceCategory::Fault);

/** All categories, including per-event SimCore tracing. */
constexpr std::uint32_t allTraceCategories = (1u << 8) - 1;

/** Short display name of one category ("sched", "serve", ...). */
const char *traceCategoryName(TraceCategory c);

/** What a trace record marks. */
enum class TraceKind : std::uint8_t
{
    Instant,    ///< a point decision/event
    Begin,      ///< start of a nested span (stack discipline per track)
    End,        ///< end of the innermost open span of the same name
    AsyncBegin, ///< start of an overlappable span, keyed by session id
    AsyncEnd,   ///< end of an overlappable span, keyed by session id
    FlowStart,  ///< first hop of a cross-track arrow, keyed by session
    FlowStep,   ///< intermediate hop of the arrow
    FlowEnd,    ///< final hop of the arrow
    CounterVal, ///< sampled metric value (arg0 = bit-cast double)
};

/** Ids attached to a record; -1 means "not applicable". */
struct TraceIds
{
    std::int16_t device = -1; ///< fleet device index
    std::int32_t pid = -1;    ///< task pid within the device's kernel
    std::int32_t session = -1; ///< serve-layer session id
};

/** One fixed-size POD trace record. */
struct TraceRecord
{
    Tick when = 0;           ///< virtual timestamp
    std::uint16_t name = 0;  ///< interned name id
    std::uint8_t cat = 0;    ///< log2 of the category bit
    TraceKind kind = TraceKind::Instant;
    std::int16_t device = -1;
    std::int16_t pad = 0;
    std::int32_t pid = -1;
    std::int32_t session = -1;
    std::int64_t arg0 = 0;
    std::int64_t arg1 = 0;

    TraceCategory
    category() const
    {
        return static_cast<TraceCategory>(1u << cat);
    }
};

static_assert(sizeof(TraceRecord) == 40, "trace records must stay POD-lean");

/**
 * Intern a trace-point name. The id is stable for the process lifetime
 * and survives any number of ring wraps; re-interning the same string
 * returns the same id. Thread-safe: shard workers hit first-use
 * interning concurrently (each trace point's function-local static).
 */
std::uint16_t internTraceName(const char *name);

/** The string behind an interned id (panics on an unknown id). */
const std::string &traceNameOf(std::uint16_t id);

/**
 * Fixed-capacity ring of trace records. Writes are O(1) and never
 * allocate after construction; when full, the oldest record is
 * overwritten and the drop is counted.
 */
class TraceRecorder
{
  public:
    /** @p capacity is rounded up to a power of two (min 64). */
    explicit TraceRecorder(std::size_t capacity = std::size_t(1) << 16);

    std::size_t capacity() const { return ring.size(); }

    /** Records currently held (<= capacity). */
    std::size_t
    size() const
    {
        return head < ring.size() ? static_cast<std::size_t>(head)
                                  : ring.size();
    }

    /** Total records ever written. */
    std::uint64_t written() const { return head; }

    /** Oldest records overwritten by wrap (never silent). */
    std::uint64_t
    dropped() const
    {
        return head > ring.size() ? head - ring.size() : 0;
    }

    /** Append one record (hot enabled path). */
    void
    push(const TraceRecord &r)
    {
        ring[static_cast<std::size_t>(head) & mask] = r;
        ++head;
    }

    /** Copy out the held records, oldest first. */
    std::vector<TraceRecord> snapshot() const;

    /** Forget everything (capacity retained). */
    void clear() { head = 0; }

  private:
    std::vector<TraceRecord> ring;
    std::size_t mask = 0;
    std::uint64_t head = 0; ///< total written; head & mask = next slot
};

namespace detail
{

/**
 * The active category mask: 0 whenever no recorder is installed, so
 * every NEON_TRACE() in the build reduces to one untaken branch.
 */
inline std::uint32_t activeMask = 0;

/** Enabled-path slow half: stamp the virtual time and push. */
void emitTrace(TraceCategory cat, std::uint16_t name, TraceKind kind,
               const TraceIds &ids, std::int64_t arg0, std::int64_t arg1);

} // namespace detail

/**
 * Install @p r as the calling thread's trace sink for the categories
 * in @p mask (null deactivates; the mask drops to 0). @p clock
 * supplies virtual timestamps; without one, records are stamped 0.
 *
 * The category mask is process-global (it is the one branch every
 * disabled trace point pays), while the sink itself is thread-local:
 * in a sharded run the coordinator's control-queue records land in the
 * Observer's main ring, and whichever thread drives a shard redirects
 * to that shard's ring for the shard's phase (installThreadTraceSink).
 * Only the coordinator, outside the parallel phase, may call
 * setTraceSink, so the mask write is ordered by the barrier handoff.
 */
void setTraceSink(TraceRecorder *r, std::uint32_t mask,
                  const EventQueue *clock = nullptr);

/** One thread's trace sink: its ring and the clock stamping records. */
struct ThreadTraceSink
{
    TraceRecorder *recorder = nullptr;
    const EventQueue *clock = nullptr;
};

/**
 * Point the calling thread's sink at @p sink without touching the
 * global category mask (a null recorder detaches), and return the sink
 * it replaces. Each shard's phase is bracketed by this: the coordinator
 * drives shards between its own control work, so it reinstalls the
 * returned sink afterwards.
 */
ThreadTraceSink installThreadTraceSink(const ThreadTraceSink &sink);

/** The calling thread's installed sink, if any. */
TraceRecorder *traceSink();

/** Is tracing of @p c currently enabled? (Hot-path inline.) */
inline bool
traceEnabled(TraceCategory c)
{
    return (detail::activeMask & static_cast<std::uint32_t>(c)) != 0;
}

/**
 * A trace point whose name was interned up front, for code that takes
 * its names from a table: one record if @p cat is enabled.
 */
inline void
traceRecord(TraceCategory cat, std::uint16_t name, TraceKind kind,
            const TraceIds &ids, std::int64_t arg0, std::int64_t arg1)
{
    if (traceEnabled(cat)) [[unlikely]]
        detail::emitTrace(cat, name, kind, ids, arg0, arg1);
}

} // namespace obs
} // namespace neon

/**
 * A trace point: NEON_TRACE(cat, kind, "name", ids, arg0, arg1).
 * Disabled categories cost one branch; enabled ones intern the name
 * literal on first hit (function-local static) and append one POD
 * record. Variadic so a braced TraceIds{...} initializer — whose commas
 * the preprocessor would otherwise split — passes through verbatim.
 */
#define NEON_TRACE(cat, kind, name_literal, ...)                           \
    do {                                                                   \
        if (::neon::obs::detail::activeMask &                              \
            static_cast<std::uint32_t>(cat)) [[unlikely]] {                \
            static const std::uint16_t neon_trace_nid_ =                   \
                ::neon::obs::internTraceName(name_literal);                \
            ::neon::obs::detail::emitTrace(cat, neon_trace_nid_, kind,     \
                                           __VA_ARGS__);                   \
        }                                                                  \
    } while (0)

#endif // NEON_OBS_TRACE_HH
