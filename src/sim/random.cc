#include "sim/random.hh"

#include <cmath>

namespace neon
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

double
Rng::uniform()
{
    // 53 high bits -> double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::int64_t
Rng::uniformInt(std::int64_t lo, std::int64_t hi)
{
    if (hi <= lo)
        return lo;
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next() % span);
}

double
Rng::exponential(double mean)
{
    double u = uniform();
    // Avoid log(0).
    if (u <= 0.0)
        u = 0x1.0p-53;
    return -mean * std::log(u);
}

double
Rng::normal()
{
    // Box-Muller; one fresh pair per call keeps the stream simple.
    double u1 = uniform();
    double u2 = uniform();
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) *
        std::cos(2.0 * M_PI * u2);
}

Rng::Lognormal::Lognormal(double mean, double cv) : mean(mean), cv(cv)
{
    if (mean <= 0.0 || cv <= 0.0)
        return;
    const double sigma2 = std::log(1.0 + cv * cv);
    mu = std::log(mean) - 0.5 * sigma2;
    sigma = std::sqrt(sigma2);
}

double
Rng::lognormal(double mean, double cv)
{
    return lognormal(Lognormal(mean, cv));
}

double
Rng::lognormal(const Lognormal &d)
{
    if (d.mean <= 0.0)
        return 0.0;
    if (d.cv <= 0.0)
        return d.mean;
    return std::exp(d.mu + d.sigma * normal());
}

bool
Rng::chance(double p)
{
    return uniform() < p;
}

Rng
Rng::fork()
{
    return Rng(next());
}

std::uint64_t
streamSeed(std::uint64_t root, const char *name)
{
    // FNV-1a over the name picks the stream...
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char *p = name; *p; ++p) {
        h ^= static_cast<unsigned char>(*p);
        h *= 0x100000001b3ull;
    }
    // ...and two splitmix rounds decorrelate it from the root so
    // root/root+1 experiments don't share suffixes of any stream.
    std::uint64_t x = root ^ h;
    const std::uint64_t a = splitmix64(x);
    const std::uint64_t b = splitmix64(x);
    return a ^ rotl(b, 27);
}

Rng
namedStream(std::uint64_t root, const char *name)
{
    return Rng(streamSeed(root, name));
}

} // namespace neon
