/**
 * @file
 * The discrete-event engine at the heart of the simulator.
 *
 * Events are closures ordered by (tick, insertion sequence); ties on the
 * tick execute in insertion order, which makes whole simulations
 * deterministic.
 *
 * The implementation is allocation-free in steady state and lean even
 * from cold:
 *
 *  - Callbacks are stored inline (small-buffer optimized) in pooled
 *    event slots, recycled LIFO through a free list. The pool grows in
 *    fixed-size chunks so existing slots never move (no relocation of
 *    live callbacks, stable addresses).
 *  - The ready queue has two tiers over packed 16-byte
 *    (tick, sequence|slot) entries. An event scheduled for the current
 *    tick goes to a FIFO lane and never touches the heap: on the
 *    serving workloads that is 42-45% of all events (process resumes
 *    after every doorbell and completion, deferred scheduler and serve
 *    actions). Every other event goes to a cache-friendly 4-ary heap.
 *    Execution always takes the earlier of (lane front, heap top), so
 *    the observable order is identical to a single priority queue: a
 *    lane entry carries the newest sequence number, so it runs after
 *    every event already queued for its tick.
 *  - Cancellation is O(1): the event's slot is recycled immediately
 *    and its queue entry goes stale, detected by a generation check
 *    (the slot remembers the unique sequence key of the event it
 *    currently backs). Stale entries are skipped at pop, or swept
 *    wholesale when they pile up, so cancel-heavy workloads (polling
 *    deadlines, timeslice preemption) cannot grow the queue unboundedly.
 *
 * Hot members (schedule / cancel / step / drain) are defined inline
 * here; cold maintenance (compaction) lives in event_queue.cc.
 */

#ifndef NEON_SIM_EVENT_QUEUE_HH
#define NEON_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "obs/trace.hh"
#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace neon
{

/**
 * Handle used to cancel a scheduled event.
 *
 * Encodes (insertion sequence << 20 | slot index). The sequence number
 * is globally unique, so a handle to an event that already ran or was
 * cancelled never aliases a later event even when the slot is reused —
 * it acts as a per-use generation count.
 */
using EventId = std::uint64_t;

/** Invalid event handle. */
constexpr EventId invalidEventId = 0;

/**
 * Event callback type: move-only, 64 bytes of inline storage. Every
 * hot-path capture in the simulator (raw pointers + POD request state)
 * fits inline; see the static_asserts at the call sites.
 */
using EventCallback = InlineFunction<void(), 64>;

/**
 * A deterministic discrete-event queue with a monotone simulated clock.
 *
 * Callbacks run strictly in (when, insertion order). Scheduling an
 * event in the past is an internal error (panic); scheduling at the
 * current tick runs the event after the currently executing one.
 *
 * Cache-line aligned: the sharded core runs each shard's queue on its
 * own worker thread, and queues allocated back to back would otherwise
 * share a line, so every event would write a line another core is
 * writing too.
 */
class alignas(64) EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return curTick; }

    /** Schedule @p fn to run at absolute time @p when. */
    template <typename F>
    EventId
    schedule(Tick when, F &&fn)
    {
        if (when < curTick)
            panic("event scheduled in the past: ", when, " < ", curTick);
        // Fail fast on empty std::functions / null function pointers
        // rather than at execution time, far from the buggy call site.
        // (Plain lambdas have no bool conversion and skip the check.)
        if constexpr (requires { static_cast<bool>(fn); }) {
            if (!fn)
                panic("null event callback");
        }

        const std::uint32_t idx = acquireSlot();
        Slot &s = slotRef(idx);
        s.fn.emplace(std::forward<F>(fn));

        // seq is bounded so the packed key cannot collide with a slot
        // index; at simulator event rates the limit is unreachable,
        // but fail loudly rather than corrupt the order if it is.
        const std::uint64_t seq = nextSeq++;
        if (seq >= (std::uint64_t(1) << (64 - slotBits)))
            panic("event sequence space exhausted");

        const std::uint64_t key = (seq << slotBits) | idx;
        s.key = key;
        if (when == curTick)
            lane.push_back({when, key});
        else
            heapPush({when, key});
        ++nLive;
        if (nLive > peakLive)
            peakLive = nLive;
        return key;
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    EventId
    scheduleIn(Tick delay, F &&fn)
    {
        if (delay < 0)
            panic("negative event delay: ", delay);
        return schedule(curTick + delay, std::forward<F>(fn));
    }

    /** Cancel a previously scheduled event; ignores stale ids. */
    void
    cancel(EventId id)
    {
        if (id == invalidEventId)
            return;
        const std::uint32_t idx =
            static_cast<std::uint32_t>(id & (slotCount - 1));
        if (idx >= nSlots)
            return;
        Slot &s = slotRef(idx);
        if (s.key != id)
            return; // stale id: the event already ran or was cancelled

        releaseSlot(s, idx);
        --nLive;
        ++nStale; // its queue entry lingers until popped or compacted
        if (nStale >= compactMinStale && nStale * 2 >= queued()) {
            compact();
        }
    }

    /** True if no live events remain. */
    bool empty() const { return nLive == 0; }

    /** Number of live (non-cancelled) events. */
    std::size_t pending() const { return nLive; }

    /**
     * Execute the next event, if any.
     * @return true if an event ran, false if the queue was empty.
     */
    bool
    step()
    {
        Entry e;
        if (!takeNext(e))
            return false;

        // Recycle the slot before invoking so the callback may
        // reschedule (possibly into this very slot) or cancel its own
        // — now stale — id; the key check makes both safe.
        const auto idx = static_cast<std::uint32_t>(e.key & (slotCount - 1));
        Slot &s = slotRef(idx);
        EventCallback fn = std::move(s.fn);
        releaseSlot(s, idx);
        --nLive;

        if (e.when < curTick)
            panic("event time ran backwards");
        curTick = e.when;
        ++nExecuted;
        NEON_TRACE(obs::TraceCategory::SimCore, obs::TraceKind::Instant,
                   "eq.step", obs::TraceIds{}, nLive, nStale);
        fn();
        return true;
    }

    /** Run all events with when <= t; afterwards now() == t. */
    void
    runUntil(Tick t)
    {
        Tick w;
        while (peekNext(w) && w <= t) {
            if (!step())
                break;
        }
        if (t > curTick)
            curTick = t;
    }

    /** Run for a duration relative to now(). */
    void runFor(Tick d) { runUntil(curTick + d); }

    /** Run until the queue is exhausted (or @p max_events executed). */
    std::uint64_t
    drain(std::uint64_t max_events = ~std::uint64_t(0))
    {
        std::uint64_t n = 0;
        while (n < max_events && step())
            ++n;
        return n;
    }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return nExecuted; }

    /** Internal-state observability, for tests and perfbench. */
    struct QueueStats
    {
        std::size_t live;        ///< live (non-cancelled) events
        std::size_t peakLive;    ///< high-water mark of live events
        std::size_t heapEntries; ///< queued entries incl. stale ones
        std::size_t stale;       ///< cancelled entries still queued
        std::size_t poolSlots;   ///< total pooled callback slots
        std::uint64_t compactions; ///< stale sweeps performed
    };

    QueueStats
    stats() const
    {
        return {nLive, peakLive, queued(), nStale, nSlots, nCompactions};
    }

  private:
    // Pool geometry: slot indices take the low 20 bits of an EventId
    // (1M concurrent events), the insertion sequence the upper 44.
    // Chunked so growth never moves a live slot.
    static constexpr unsigned slotBits = 20;
    static constexpr std::size_t slotCount = std::size_t(1) << slotBits;
    static constexpr unsigned chunkBits = 9; // 512 slots per chunk
    static constexpr std::size_t chunkSize = std::size_t(1) << chunkBits;

    // Compaction policy: sweeping costs O(entries), so only bother once
    // stale entries dominate — this bounds the queue at ~2x the live
    // event count under arbitrarily heavy cancel traffic while keeping
    // the amortized per-cancel cost O(1).
    static constexpr std::size_t compactMinStale = 64;

    /** One pooled callback slot; key == 0 marks the slot free. */
    struct Slot
    {
        EventCallback fn;
        std::uint64_t key = 0;      ///< EventId of the live occupant
        std::uint32_t nextFree = 0; ///< free-list link (index + 1)
    };

    /** One ready-queue entry: 16 bytes, four per cache line. */
    struct Entry
    {
        Tick when;
        std::uint64_t key; ///< (seq << slotBits) | slot
    };

    /**
     * Priority order: earliest tick first, then insertion sequence.
     * Comparing packed keys is comparing sequences — the sequence
     * occupies the high bits and is unique per entry.
     */
    static bool
    earlier(const Entry &a, const Entry &b)
    {
        return a.when != b.when ? a.when < b.when : a.key < b.key;
    }

    Slot &
    slotRef(std::uint32_t idx)
    {
        return chunks[idx >> chunkBits][idx & (chunkSize - 1)];
    }

    const Slot &
    slotRef(std::uint32_t idx) const
    {
        return chunks[idx >> chunkBits][idx & (chunkSize - 1)];
    }

    bool
    isLive(const Entry &e) const
    {
        return slotRef(static_cast<std::uint32_t>(e.key & (slotCount - 1)))
                   .key == e.key;
    }

    std::uint32_t
    acquireSlot()
    {
        if (freeHead != 0) {
            const std::uint32_t idx = freeHead - 1;
            freeHead = slotRef(idx).nextFree;
            return idx;
        }
        return growPool();
    }

    void
    releaseSlot(Slot &s, std::uint32_t idx)
    {
        s.fn = nullptr;
        s.key = 0;
        s.nextFree = freeHead;
        freeHead = idx + 1;
    }

    /** Entries in both tiers, stale ones included. */
    std::size_t
    queued() const
    {
        return heap.size() + (lane.size() - laneHead);
    }

    bool laneEmpty() const { return laneHead == lane.size(); }

    /** Consume the lane front; a drained lane rewinds to reuse storage. */
    void
    laneDropFront()
    {
        if (++laneHead == lane.size()) {
            lane.clear();
            laneHead = 0;
        }
    }

    void
    heapPush(const Entry &e)
    {
        heap.push_back(e);
        siftUp(heap.size() - 1);
    }

    void
    heapPopTop()
    {
        heap.front() = heap.back();
        heap.pop_back();
        if (!heap.empty())
            siftDown(0);
    }

    void
    siftUp(std::size_t i)
    {
        const Entry e = heap[i];
        while (i > 0) {
            const std::size_t parent = (i - 1) / 4;
            if (!earlier(e, heap[parent]))
                break;
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = e;
    }

    void
    siftDown(std::size_t i)
    {
        const Entry e = heap[i];
        const std::size_t n = heap.size();
        for (;;) {
            const std::size_t first = 4 * i + 1;
            if (first >= n)
                break;
            std::size_t best = first;
            const std::size_t last = first + 4 < n ? first + 4 : n;
            for (std::size_t c = first + 1; c < last; ++c) {
                if (earlier(heap[c], heap[best]))
                    best = c;
            }
            if (!earlier(heap[best], e))
                break;
            heap[i] = heap[best];
            i = best;
        }
        heap[i] = e;
    }

    /** Drop stale entries off the heap top; true if a live top remains. */
    bool
    pruneHeapTop()
    {
        for (;;) {
            if (heap.empty())
                return false;
            if (isLive(heap[0])) [[likely]]
                return true;
            heapPopTop();
            --nStale;
        }
    }

    /** Drop stale entries off the lane front. */
    void
    pruneLaneFront()
    {
        while (!laneEmpty() && !isLive(lane[laneHead])) {
            laneDropFront();
            --nStale;
        }
    }

    /**
     * True if the lane front precedes the heap top. It loses only to
     * an older event for the same tick, scheduled before the tick
     * began.
     */
    bool
    laneFrontFirst() const
    {
        return heap.empty() || earlier(lane[laneHead], heap[0]);
    }

    /**
     * Select (and remove) the next event in (when, seq) order from
     * whichever tier holds it. Returns false when no live event
     * remains.
     */
    bool
    takeNext(Entry &out)
    {
        if (nStale != 0) [[unlikely]] {
            pruneLaneFront();
            pruneHeapTop();
        }
        if (!laneEmpty() && laneFrontFirst()) {
            out = lane[laneHead];
            laneDropFront();
            return true;
        }
        if (heap.empty())
            return false;
        out = heap[0];
        heapPopTop();
        return true;
    }

    /** The tick of the next live event, without consuming it. */
    bool
    peekNext(Tick &when)
    {
        if (nStale != 0) [[unlikely]] {
            pruneLaneFront();
            pruneHeapTop();
        }
        if (!laneEmpty() && laneFrontFirst()) {
            when = lane[laneHead].when;
            return true;
        }
        if (heap.empty())
            return false;
        when = heap[0].when;
        return true;
    }

    std::uint32_t growPool();
    void compact();

    Tick curTick = 0;
    std::uint64_t nextSeq = 1;
    std::uint64_t nExecuted = 0;
    std::uint64_t nCompactions = 0;
    std::size_t nLive = 0;
    std::size_t peakLive = 0;
    std::size_t nStale = 0;
    std::size_t nSlots = 0;     ///< slots allocated across all chunks
    std::uint32_t freeHead = 0; ///< free-list head (index + 1); 0 = empty

    std::vector<Entry> heap; ///< future events (4-ary min-heap)
    std::vector<Entry> lane; ///< same-tick FIFO, consumed from laneHead
    std::size_t laneHead = 0;
    std::vector<std::unique_ptr<Slot[]>> chunks;
};

} // namespace neon

#endif // NEON_SIM_EVENT_QUEUE_HH
