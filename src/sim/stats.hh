/**
 * @file
 * Statistics primitives: running means and log2-binned histograms
 * matching the paper's Figure 2 presentation.
 */

#ifndef NEON_SIM_STATS_HH
#define NEON_SIM_STATS_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace neon
{

/**
 * Running count and mean.
 *
 * The mean is Welford's online update, m += (v - m) / n, rather than a
 * sum divided at read time: the two round differently, and every
 * printed mean round time comes from this one.
 */
class Accum
{
  public:
    void add(double v);
    void reset() { *this = Accum(); }

    std::uint64_t count() const { return n; }
    double mean() const { return n ? m : 0.0; }

  private:
    std::uint64_t n = 0;
    double m = 0.0; ///< running mean
};

/**
 * Histogram over floor(log2(value)) bins, as used for the paper's
 * request inter-arrival and service-time CDFs (Figure 2). Values are
 * supplied in microseconds; values below 1 land in bin 0.
 */
class Log2Histogram
{
  public:
    explicit Log2Histogram(unsigned max_bin = 20);

    void add(double value_us);

    unsigned maxBin() const { return unsigned(bins.size()) - 1; }
    std::uint64_t binCount(unsigned b) const;
    std::uint64_t total() const { return n; }

    /** Fraction of samples in bins [0, b], in percent. */
    double cdfPercent(unsigned b) const;

  private:
    std::vector<std::uint64_t> bins;
    std::uint64_t n = 0;
};

} // namespace neon

#endif // NEON_SIM_STATS_HH
