/**
 * @file
 * Bounded FIFO of submitted-but-unprocessed requests for one channel.
 */

#ifndef NEON_GPU_RING_BUFFER_HH
#define NEON_GPU_RING_BUFFER_HH

#include <cstddef>
#include <memory>

#include "gpu/request.hh"

namespace neon
{

/**
 * The channel's ring of pending request descriptors. The device pops
 * entries in FIFO order; user code must not submit when full (real
 * libraries spin on free space; our workloads bound their pipelining
 * depth well below the capacity).
 *
 * Storage is a power-of-two ring that grows on demand, up to the
 * first power of two holding the capacity, and never shrinks: the
 * paper's channel ring is a fixed buffer in device memory, and a
 * channel in steady state pushes and pops without allocating. head
 * and tail run free (unsigned wrap); their difference is the size.
 */
class RingBuffer
{
  public:
    explicit RingBuffer(std::size_t capacity) : cap(capacity) {}

    bool empty() const { return head == tail; }
    bool full() const { return size() >= cap; }
    std::size_t size() const { return tail - head; }
    std::size_t capacity() const { return cap; }

    /** Append a request; returns false (drop) if full. */
    bool
    push(const GpuRequest &r)
    {
        if (full())
            return false;
        if (size() == slots) [[unlikely]]
            grow();
        ring[tail++ & mask] = r;
        return true;
    }

    /** Front request; undefined if empty. */
    const GpuRequest &front() const { return ring[head & mask]; }

    /** Pop the front request. */
    GpuRequest pop() { return ring[head++ & mask]; }

    /** Drop everything (abort/teardown); the storage stays. */
    void clear() { head = tail = 0; }

  private:
    void
    grow()
    {
        // Double (4 entries at first) and unwrap into the new ring.
        const std::size_t n = size();
        const std::size_t grown_slots = slots == 0 ? 4 : slots * 2;
        auto grown = std::make_unique<GpuRequest[]>(grown_slots);
        for (std::size_t i = 0; i < n; ++i)
            grown[i] = ring[(head + i) & mask];
        ring = std::move(grown);
        slots = grown_slots;
        mask = grown_slots - 1;
        head = 0;
        tail = n;
    }

    std::size_t cap;
    std::unique_ptr<GpuRequest[]> ring;
    std::size_t slots = 0; ///< allocated entries, a power of two
    std::size_t mask = 0;  ///< slots - 1
    std::size_t head = 0;
    std::size_t tail = 0;
};

} // namespace neon

#endif // NEON_GPU_RING_BUFFER_HH
