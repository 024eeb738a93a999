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
 *  - The ready queue holds packed 16-byte (tick, sequence|slot)
 *    entries in FIFO lanes and one 4-ary heap. Each lane serves one
 *    fixed delay: an event scheduled exactly that many ticks ahead is
 *    appended to it. Lane 0 (delay 0) takes events for the current
 *    tick; owners of other constant delays declare them (the kernel
 *    its doorbell and fault-path costs and its poll period). Because
 *    now() never decreases, every lane is sorted by
 *    (tick, sequence) as it is built. On the serving workloads the
 *    lanes take 76-78% of all events; only jittered device
 *    completions and rare timers use the heap. Execution takes the earliest of the
 *    heap top and the lane fronts, so the observable order is that of
 *    a single priority queue. A delay that is not declared, or one
 *    past the small lane cap, goes to the heap: a declaration can cost
 *    speed but can never change the order.
 *  - Lanes are power-of-two rings, since a lane such as the pollers'
 *    may never drain; they double when full and never shrink.
 *  - Cancellation is O(1): the event's slot is recycled immediately
 *    and its queue entry goes stale, detected by a generation check
 *    (the slot remembers the unique sequence key of the event it
 *    currently backs). A stale entry is dropped when it reaches the
 *    front, or swept wholesale when stale entries pile up, so
 *    cancel-heavy workloads (polling deadlines, timeslice preemption)
 *    cannot grow the queue unboundedly.
 *  - A callback runs in place in its slot, destroyed by the same
 *    call. Its key is cleared first, so cancelling its own id from
 *    inside is a no-op, and the slot rejoins the free list only after
 *    the callback returns, so the events it schedules never reuse the
 *    storage it is running from.
 *
 * Hot members (schedule / cancel / step / runUntil) are defined inline
 * here; cold maintenance (pool and lane growth, compaction) lives in
 * event_queue.cc.
 */

#ifndef NEON_SIM_EVENT_QUEUE_HH
#define NEON_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <limits>
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

    /**
     * Declare @p delay as a constant delay many events are scheduled
     * with: from now on an event due exactly @p delay ticks ahead goes
     * to a FIFO lane of its own instead of the heap. Entries already
     * queued stay where they are. A non-positive or already declared
     * delay, or one past the lane cap, is a no-op. Order is never
     * affected, only speed.
     */
    void
    declareLane(Tick delay)
    {
        if (delay <= 0 || nLanes == maxLanes || laneFor(delay))
            return;
        lanes[nLanes++].delay = delay;
    }

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
        if (Lane *l = laneFor(when - curTick))
            l->push({when, key});
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
        const std::uint32_t idx = slotOf(id);
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
        if (!takeNext(std::numeric_limits<Tick>::max(), e))
            return false;
        run(e);
        return true;
    }

    /** Run all events with when <= t; afterwards now() == t. */
    void
    runUntil(Tick t)
    {
        Entry e;
        while (takeNext(t, e))
            run(e);
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
        std::size_t heapEntries; ///< heap + lane entries incl. stale
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

    // Lane 0 (delay 0) plus up to three declared delays: every lane
    // front is compared at each pop, so the cap keeps selection cheap.
    static constexpr unsigned maxLanes = 4;

    // Compaction policy: sweeping costs O(entries), so only bother once
    // stale entries dominate — this bounds the queue at ~2x the live
    // event count under arbitrarily heavy cancel traffic while keeping
    // the amortized per-cancel cost O(1).
    static constexpr std::size_t compactMinStale = 64;

    /** One pooled callback slot; key == 0 marks it free or running. */
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
     * A FIFO of entries that share one delay, on a power-of-two ring.
     * head and tail run free (unsigned wrap); their difference is the
     * size.
     */
    struct Lane
    {
        Tick delay = 0;
        std::unique_ptr<Entry[]> ring;
        std::uint32_t capacity = 0;
        std::uint32_t mask = 0; ///< capacity - 1
        std::uint32_t head = 0;
        std::uint32_t tail = 0;

        bool empty() const { return head == tail; }
        std::uint32_t size() const { return tail - head; }
        const Entry &front() const { return ring[head & mask]; }

        void
        push(const Entry &e)
        {
            if (size() == capacity) [[unlikely]]
                grow();
            ring[tail++ & mask] = e;
        }

        void grow();
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

    static std::uint32_t
    slotOf(std::uint64_t key)
    {
        return static_cast<std::uint32_t>(key & (slotCount - 1));
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
        return slotRef(slotOf(e.key)).key == e.key;
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

    /** The lane serving @p delay, or nullptr for the heap. */
    Lane *
    laneFor(Tick delay)
    {
        for (unsigned k = 0; k < nLanes; ++k) {
            if (lanes[k].delay == delay)
                return &lanes[k];
        }
        return nullptr;
    }

    /** Entries in the heap and every lane, stale ones included. */
    std::size_t
    queued() const
    {
        std::size_t n = heap.size();
        for (unsigned k = 0; k < nLanes; ++k)
            n += lanes[k].size();
        return n;
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

    /**
     * Remove the earliest entry of the heap and the lanes into @p out
     * if it is due by @p limit. A stale entry met at the front is
     * dropped and the selection repeats, so one selection serves each
     * live event. Returns false when nothing live is due.
     */
    bool
    takeNext(Tick limit, Entry &out)
    {
        for (;;) {
            const Entry *best = heap.empty() ? nullptr : &heap.front();
            Lane *from = nullptr;
            for (unsigned k = 0; k < nLanes; ++k) {
                Lane &l = lanes[k];
                if (!l.empty() && (!best || earlier(l.front(), *best))) {
                    best = &l.front();
                    from = &l;
                }
            }
            if (!best || best->when > limit)
                return false;
            out = *best;
            if (from)
                ++from->head;
            else
                heapPopTop();
            if (isLive(out)) [[likely]]
                return true;
            --nStale;
        }
    }

    /** Execute the taken entry's callback in place, then free its slot. */
    void
    run(const Entry &e)
    {
        const std::uint32_t idx = slotOf(e.key);
        Slot &s = slotRef(idx);
        s.key = 0; // a cancel of its own id from inside is now a no-op
        --nLive;

        if (e.when < curTick)
            panic("event time ran backwards");
        curTick = e.when;
        ++nExecuted;
        NEON_TRACE(obs::TraceCategory::SimCore, obs::TraceKind::Instant,
                   "eq.step", obs::TraceIds{}, nLive, nStale);
        // Slots never move (chunked pool), so s stays valid while the
        // callback grows the pool.
        s.fn.consume();
        releaseSlot(s, idx);
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
    unsigned nLanes = 1;        ///< lane 0 serves delay 0

    Lane lanes[maxLanes];
    std::vector<Entry> heap; ///< every other event (4-ary min-heap)
    std::vector<std::unique_ptr<Slot[]>> chunks;
};

} // namespace neon

#endif // NEON_SIM_EVENT_QUEUE_HH
