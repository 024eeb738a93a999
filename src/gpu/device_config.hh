/**
 * @file
 * Calibration of the device model (Kepler-class defaults): the channel
 * pool and speed factor are per-experiment settings; the switch,
 * cleanup and ring-size constants are fixed facts of the modelled
 * device.
 */

#ifndef NEON_GPU_DEVICE_CONFIG_HH
#define NEON_GPU_DEVICE_CONFIG_HH

#include <cstddef>

#include "sim/types.hh"

namespace neon
{

/**
 * Timing and capacity parameters of the simulated accelerator.
 *
 * Defaults approximate the paper's GTX670 ("Kepler") as far as its
 * externally visible behaviour goes: fast context switching among
 * channels, a fixed pool of channels (48 contexts x (compute + DMA)
 * exhaust it), and round-robin cycling among channels with pending
 * requests.
 */
struct DeviceConfig
{
    /** Total channels available on the device (Sec. 6.3 DoS bound). */
    std::size_t maxChannels = 96;

    /** Ring-buffer entries per channel. */
    static constexpr std::size_t ringCapacity = 512;

    /** Cost of switching the execute engine between GPU contexts. */
    static constexpr Tick contextSwitchCost = usec(5);

    /** Cost of switching between channels of the same context. */
    static constexpr Tick channelSwitchCost = usec(1);

    /**
     * Cost of reconfiguring the execute engine between the graphics
     * and compute pipelines. This is what starves graphics work when a
     * compute co-runner keeps the device busy (the paper's glxgears
     * observation: gears' requests complete at roughly a third of the
     * co-runner's rate during free-run periods), and it is invisible
     * to a size-based usage estimator.
     */
    static constexpr Tick pipelineSwitchCost = usec(25);

    /** Device-side cleanup time when a channel is aborted (task kill). */
    static constexpr Tick abortCleanupCost = usec(50);

    /**
     * Relative execution speed of this device. Execute-engine service
     * times (compute/graphics) are divided by this factor at dispatch,
     * so a factor of 2.0 models a device twice as fast as the
     * calibration baseline. Heterogeneous fleets (src/fleet) use it
     * for throughput-aware placement. DMA transfers, switch and
     * cleanup costs are unaffected — they are interconnect/driver
     * latencies, not shader throughput. Must be positive.
     */
    double speedFactor = 1.0;
};

} // namespace neon

#endif // NEON_GPU_DEVICE_CONFIG_HH
