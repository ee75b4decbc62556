/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Vega's evaluation (random test baselines in Table 7, random failure-mode
 * 'R' in Table 6, scheduler shuffling) must be reproducible run-to-run, so
 * everything random flows through this explicitly-seeded generator rather
 * than std::random_device.
 */
#pragma once

#include <cstdint>

namespace vega {

/**
 * splitmix64 step: advances @p x and returns the next stream value. It
 * seeds Rng and roots every per-job and per-device stream.
 */
inline uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** xoshiro256** — small, fast, high-quality PRNG (public-domain algorithm). */
class Rng
{
  public:
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Uniform 64-bit value (inline: fleet epochs and fm_rand lanes
     *  draw in their inner loops). */
    uint64_t next()
    {
        uint64_t result = rotl(s_[1] * 5, 7) * 9;
        uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound) using rejection sampling. */
    uint64_t below(uint64_t bound);

    /** Uniform double in [0, 1). */
    double uniform() { return double(next() >> 11) * 0x1.0p-53; }

    /** Bernoulli draw with probability @p p. */
    bool chance(double p) { return uniform() < p; }

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }
    uint64_t s_[4];
};

} // namespace vega
