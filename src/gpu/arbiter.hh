/**
 * @file
 * Round-robin channel arbitration for one engine.
 *
 * The device cycles among channels with pending requests, processing one
 * request per visit, whatever the channel's class. Graphics work falls
 * behind a compute co-runner (the paper's glxgears observation, Section
 * 5.3) through the device's pipeline-switch cost
 * (DeviceConfig::pipelineSwitchCost), not through arbitration.
 */

#ifndef NEON_GPU_ARBITER_HH
#define NEON_GPU_ARBITER_HH

#include <cstddef>
#include <vector>

#include "gpu/channel.hh"

namespace neon
{

/** Deterministic round-robin picker over registered channels. */
class Arbiter
{
  public:
    /** Add a channel to the rotation. */
    void
    registerChannel(Channel *c)
    {
        rotation.push_back(c);
    }

    /** Remove a channel (teardown/abort). */
    void
    removeChannel(Channel *c)
    {
        for (std::size_t i = 0; i < rotation.size(); ++i) {
            if (rotation[i] == c) {
                rotation.erase(rotation.begin() + i);
                if (cursor > i)
                    --cursor;
                if (cursor >= rotation.size())
                    cursor = 0;
                return;
            }
        }
    }

    std::size_t channelCount() const { return rotation.size(); }

    /**
     * Pick the next channel to serve, advancing the round-robin cursor.
     * @return nullptr if no channel has pending work.
     */
    Channel *
    pick()
    {
        // One pass from the cursor, wrapping at the end: no division
        // on the dispatch path.
        const std::size_t n = rotation.size();
        std::size_t i = cursor;
        for (std::size_t step = 0; step < n; ++step) {
            Channel *c = rotation[i];
            if (++i == n)
                i = 0;
            if (c->ring().empty())
                continue;
            cursor = i;
            return c;
        }
        return nullptr;
    }

  private:
    std::vector<Channel *> rotation;
    /** Where the next pick starts; below rotation.size() unless empty. */
    std::size_t cursor = 0;
};

} // namespace neon

#endif // NEON_GPU_ARBITER_HH
