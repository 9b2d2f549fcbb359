#include "common/rng.hh"

#include <algorithm>
#include <cmath>

namespace smthill
{

namespace
{

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t x = seed;
    s0 = splitmix64(x);
    s1 = splitmix64(x);
    if (s0 == 0 && s1 == 0)
        s1 = 1;
}

int
Rng::nextGeometric(double p, int max_value)
{
    if (p >= 1.0 || max_value <= 1)
        return 1;
    if (p <= 0.0)
        return max_value;
    return geometricFromDraw(next53(), std::log1p(-p), max_value);
}

int
geometricFromDraw(std::uint64_t draw53, double log1p_neg_p, int max_value)
{
    const double u = static_cast<double>(draw53) * 0x1.0p-53;
    // Clamp in double before converting: for a tiny p the quotient
    // can pass INT_MAX, where the conversion would be undefined. Any
    // quotient >= max_value - 1 truncates to the cap anyway.
    const double q = std::min(std::log1p(-u) / log1p_neg_p,
                              static_cast<double>(max_value - 1));
    return std::max(1, 1 + static_cast<int>(q));
}

} // namespace smthill
