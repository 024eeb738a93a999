/**
 * @file
 * One device's full stack inside a fleet: ground-truth meter, device
 * model, kernel module, and the per-device scheduling policy. Stacks
 * share their device group's event queue — the fleet's single queue
 * in the serial core, the group's shard queue under ShardedEngine —
 * but are otherwise fully independent: exactly N copies of the
 * single-device world the paper evaluates, which is what makes the
 * conservative-window parallelization sound.
 */

#ifndef NEON_FLEET_DEVICE_STACK_HH
#define NEON_FLEET_DEVICE_STACK_HH

#include <cstddef>
#include <memory>

#include "gpu/device.hh"
#include "gpu/usage_meter.hh"
#include "os/kernel.hh"
#include "sched/vtime_tap.hh"
#include "sim/event_queue.hh"

namespace neon
{

/** A single accelerator stack within a fleet. */
class DeviceStack
{
  public:
    DeviceStack(EventQueue &eq, std::size_t index,
                const DeviceConfig &device_cfg, const CostModel &costs,
                const ChannelPolicy &channel_policy, Tick poll_period)
        : index(index), device(eq, device_cfg, meter),
          kernel(eq, device, costs, channel_policy)
    {
        device.setDeviceIndex(static_cast<int>(index));
        kernel.polling().setPeriod(poll_period);
    }

    DeviceStack(const DeviceStack &) = delete;
    DeviceStack &operator=(const DeviceStack &) = delete;

    /**
     * Install the per-device scheduling policy (owned by the stack).
     * A policy with a virtual-time tap publishes its system virtual
     * time into @p vtime_cell; the cell is left alone otherwise.
     */
    void
    setScheduler(std::unique_ptr<Scheduler> s, Tick &vtime_cell)
    {
        sched = std::move(s);
        auto *tap = dynamic_cast<VirtualTimeTap *>(sched.get());
        if (tap)
            tap->publishTo(&vtime_cell);
        vtimeTap = tap;
        kernel.setScheduler(sched.get());
    }

    /** Position of this stack in the fleet. */
    const std::size_t index;

    UsageMeter meter;
    GpuDevice device;
    KernelModule kernel;
    std::unique_ptr<Scheduler> sched;
    /** The policy's virtual-time tap; nullptr if it keeps none. */
    const VirtualTimeTap *vtimeTap = nullptr;
};

} // namespace neon

#endif // NEON_FLEET_DEVICE_STACK_HH
