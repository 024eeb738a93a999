/**
 * @file
 * Virtual-memory-area bookkeeping for the channel-tracker state machine.
 *
 * NEON's initialization phase (paper Section 4) identifies, for every
 * channel, three key VMAs established by the driver: the command buffer,
 * the ring buffer, and the channel register. A channel becomes
 * schedulable ("active") only once all three have been observed. We
 * model the mmap stream the kernel would see.
 */

#ifndef NEON_MMIO_ADDRESS_SPACE_HH
#define NEON_MMIO_ADDRESS_SPACE_HH

#include <cstdint>

namespace neon
{

/** The three VMA kinds NEON must identify per channel. */
enum class VmaKind { CommandBuffer, RingBuffer, ChannelRegister };

/** One mapped region as observed at mmap time. */
struct Vma
{
    VmaKind kind;
    int channelId;
    std::uint64_t base;
    std::uint64_t size;
};

} // namespace neon

#endif // NEON_MMIO_ADDRESS_SPACE_HH
