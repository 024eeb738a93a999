/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * We implement xoshiro256** seeded via splitmix64 and our own
 * distribution transforms, so that simulations are bit-reproducible
 * across standard libraries and platforms.
 */

#ifndef NEON_SIM_RANDOM_HH
#define NEON_SIM_RANDOM_HH

#include <cstdint>

namespace neon
{

/** xoshiro256** PRNG with explicit, portable distribution transforms. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformInt(std::int64_t lo, std::int64_t hi);

    /** Exponential with the given mean. */
    double exponential(double mean);

    /** Standard normal via Box-Muller (deterministic, stateless pairs). */
    double normal();

    /**
     * Lognormal parameterized by its (arithmetic) mean and coefficient
     * of variation, which is the natural way to describe request-size
     * jitter around a profiled average.
     */
    double lognormal(double mean, double cv);

    /** Bernoulli trial. */
    bool chance(double p);

    /** Fork a child RNG with an independent stream. */
    Rng fork();

  private:
    std::uint64_t s[4];
};

/**
 * Derive a per-subsystem seed from a root seed and a stream name.
 *
 * Subsystems that draw randomness (arrivals, lifetimes, fault plans,
 * victim picks, ...) each derive their own stream from the experiment
 * root seed by name, so enabling one subsystem — e.g. fault
 * injection — cannot perturb another's draw sequence. The name is
 * hashed (FNV-1a) and mixed with the root via splitmix64 rounds, so
 * nearby roots and similar names still land on unrelated streams.
 */
std::uint64_t streamSeed(std::uint64_t root, const char *name);

/** An Rng seeded with streamSeed(root, name). */
Rng namedStream(std::uint64_t root, const char *name);

} // namespace neon

#endif // NEON_SIM_RANDOM_HH
