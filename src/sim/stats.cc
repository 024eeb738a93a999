#include "sim/stats.hh"

#include <algorithm>
#include <bit>

namespace neon
{

void
Accum::add(double v)
{
    ++n;
    const double d = v - m;
    m += d / static_cast<double>(n);
}

Log2Histogram::Log2Histogram(unsigned max_bin) : bins(max_bin + 1, 0)
{
}

void
Log2Histogram::add(double value_us)
{
    // floor(log2(x)) for x >= 1 equals bit_width(floor(x)) - 1, since
    // bin edges are exact integers; an integer bit-scan beats the
    // floating-point log2 on this per-request path.
    unsigned b = 0;
    if (value_us >= 1.0) {
        const auto v = static_cast<std::uint64_t>(value_us);
        b = static_cast<unsigned>(std::bit_width(v)) - 1;
    }
    b = std::min<unsigned>(b, maxBin());
    ++bins[b];
    ++n;
}

std::uint64_t
Log2Histogram::binCount(unsigned b) const
{
    return b < bins.size() ? bins[b] : 0;
}

double
Log2Histogram::cdfPercent(unsigned b) const
{
    if (n == 0)
        return 0.0;
    std::uint64_t acc = 0;
    for (unsigned i = 0; i <= b && i < bins.size(); ++i)
        acc += bins[i];
    return 100.0 * static_cast<double>(acc) / static_cast<double>(n);
}

} // namespace neon
