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
EventQueue::compact()
{
    const auto stale = [this](const Entry &e) { return !isLive(e); };
    heap.erase(std::remove_if(heap.begin(), heap.end(), stale),
               heap.end());
    // remove_if preserves relative order, so the lane stays FIFO (its
    // consumed prefix goes too).
    lane.erase(std::remove_if(lane.begin() + static_cast<std::ptrdiff_t>(
                                                 laneHead),
                              lane.end(), stale),
               lane.end());
    lane.erase(lane.begin(),
               lane.begin() + static_cast<std::ptrdiff_t>(laneHead));
    laneHead = 0;
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
