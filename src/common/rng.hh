/**
 * @file
 * Deterministic, copyable pseudo-random number generation.
 *
 * Every stochastic element of the simulator (instruction streams,
 * memory address selection, RAND-HILL restarts) draws from an Rng
 * whose entire state is two 64-bit words. Copying an Rng copies the
 * stream position, which is what makes whole-machine checkpoints
 * (value copies of SmtCpu) replay identically.
 */

#ifndef SMTHILL_COMMON_RNG_HH
#define SMTHILL_COMMON_RNG_HH

#include <cstdint>

namespace smthill
{

/**
 * xoroshiro128++ generator with splitmix64 seeding. Value semantics;
 * 16 bytes of state. The per-draw members are inline: the stream
 * generator calls them several times per synthesized instruction.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

    /** @return next 64 uniformly random bits. */
    std::uint64_t
    next()
    {
        const std::uint64_t a = s0;
        std::uint64_t b = s1;
        const std::uint64_t result = rotl(a + b, 17) + a;
        b ^= a;
        s0 = rotl(a, 49) ^ b ^ (b << 21);
        s1 = rotl(b, 28);
        return result;
    }

    /** @return uniform integer in [0, bound); bound must be > 0. */
    std::uint64_t
    nextBelow(std::uint64_t bound)
    {
        // Lemire-style rejection-free reduction is fine here; slight
        // bias is irrelevant for workload synthesis.
        return static_cast<std::uint64_t>(
            (static_cast<__uint128_t>(next()) * bound) >> 64);
    }

    /** @return uniform integer in [lo, hi] inclusive. */
    std::int64_t
    nextRange(std::int64_t lo, std::int64_t hi)
    {
        if (hi <= lo)
            return lo;
        const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
        return lo + static_cast<std::int64_t>(nextBelow(span));
    }

    /** @return the 53 random bits nextDouble() scales into [0, 1). */
    std::uint64_t next53() { return next() >> 11; }

    /** @return uniform double in [0, 1). */
    double nextDouble() { return static_cast<double>(next53()) * 0x1.0p-53; }

    /** @return true with probability p (clamped to [0,1]). */
    bool
    chance(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return nextDouble() < p;
    }

    /**
     * Draw from a (truncated) geometric distribution with success
     * probability p; result is >= 1. Consumes one next() unless the
     * distribution is degenerate (p >= 1, p <= 0 or max_value <= 1).
     */
    int nextGeometric(double p, int max_value);

    bool operator==(const Rng &) const = default;

  private:
    static std::uint64_t
    rotl(std::uint64_t v, int k)
    {
        return (v << k) | (v >> (64 - k));
    }

    std::uint64_t s0;
    std::uint64_t s1;
};

/**
 * The inverse CDF of the geometric distribution on {1, 2, ...},
 * truncated to @p max_value: the value nextGeometric() returns when
 * its one draw is next53() == @p draw53. Requires @p log1p_neg_p =
 * log1p(-p) < 0 and @p max_value > 1. Non-decreasing in @p draw53,
 * which is what lets the stream generator replace it by a threshold
 * table built from it.
 */
int geometricFromDraw(std::uint64_t draw53, double log1p_neg_p,
                      int max_value);

} // namespace smthill

#endif // SMTHILL_COMMON_RNG_HH
