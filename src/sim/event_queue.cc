#include "sim/event_queue.hh"

#include <algorithm>

namespace neon
{

std::uint32_t
EventQueue::growPool()
{
    if (nSlots >= slotCount)
        panic("event slot pool exhausted (", nSlots, " slots)");

    const auto base = static_cast<std::uint32_t>(nSlots);
    chunks.push_back(std::make_unique<Slot[]>(chunkSize));
    nSlots += chunkSize;

    // Hand out the chunk's first slot; thread the rest onto the free
    // list with the lowest index on top, so near-term reuse walks the
    // chunk sequentially (cache-warm).
    Slot *chunk = chunks.back().get();
    for (std::size_t i = chunkSize; i-- > 1;) {
        chunk[i].nextFree = freeHead;
        freeHead = base + static_cast<std::uint32_t>(i) + 1;
    }
    return base;
}

void
EventQueue::Lane::grow()
{
    // Double (64 entries at first) and unwrap into the new ring. The
    // slot pool's 2^20 cap and compaction keep a lane far below 2^32.
    const std::uint32_t n = size();
    const std::uint32_t cap = capacity == 0 ? 64 : capacity * 2;
    auto grown = std::make_unique<Entry[]>(cap);
    for (std::uint32_t i = 0; i < n; ++i)
        grown[i] = ring[(head + i) & mask];
    ring = std::move(grown);
    capacity = cap;
    mask = cap - 1;
    head = 0;
    tail = n;
}

void
EventQueue::compact()
{
    const auto stale = [this](const Entry &e) { return !isLive(e); };
    heap.erase(std::remove_if(heap.begin(), heap.end(), stale),
               heap.end());
    // Slide each lane's live entries toward its head, in order; the
    // write cursor never passes the read cursor.
    for (unsigned k = 0; k < nLanes; ++k) {
        Lane &l = lanes[k];
        std::uint32_t w = l.head;
        for (std::uint32_t r = l.head; r != l.tail; ++r) {
            const Entry &e = l.ring[r & l.mask];
            if (isLive(e))
                l.ring[w++ & l.mask] = e;
        }
        l.tail = w;
    }
    NEON_TRACE(obs::TraceCategory::SimCore, obs::TraceKind::Instant,
               "eq.compact", obs::TraceIds{}, nStale, queued());
    nStale = 0;
    ++nCompactions;

    // Floyd heap construction: O(n), entries keep their sequence keys
    // so the (when, seq) order — and thus determinism — is unchanged.
    if (heap.size() > 1) {
        for (std::size_t i = (heap.size() - 2) / 4 + 1; i-- > 0;)
            siftDown(i);
    }
}

} // namespace neon
