/**
 * @file
 * Deterministic pseudo-random number generator.
 *
 * We implement xoshiro256** rather than relying on std:: distributions
 * so that every experiment is bit-reproducible across standard library
 * implementations; the paper's experiments are stochastic and we want
 * the reproduction's tables to be stable.
 */

#ifndef RR_BASE_RNG_HH
#define RR_BASE_RNG_HH

#include <cstdint>

namespace rr {

/**
 * xoshiro256** generator with splitmix64 seeding.
 *
 * Satisfies the essentials of UniformRandomBitGenerator but is used
 * through the explicit helpers below for determinism.
 */
class Rng
{
  public:
    using result_type = uint64_t;

    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Re-seed the generator. */
    void seed(uint64_t seed);

    /** @return the next raw 64-bit output. */
    uint64_t next()
    {
        const uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const uint64_t t = s_[1] << 17;

        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);

        return result;
    }

    uint64_t operator()() { return next(); }

    static constexpr uint64_t min() { return 0; }
    static constexpr uint64_t max() { return ~uint64_t{0}; }

    /** Uniform double in [0, 1). */
    double nextDouble()
    {
        // 53 random mantissa bits -> [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /**
     * Uniform integer in the closed range [lo, hi].
     * Uses rejection-free Lemire-style mapping; slight bias is below
     * 2^-53 and irrelevant for simulation purposes.
     */
    uint64_t nextRange(uint64_t lo, uint64_t hi);

    /**
     * Split off an independent child generator; used to give each
     * thread / fault model its own stream.
     */
    Rng split();

    /**
     * Copy the raw xoshiro256** state into @p out. Together with
     * setState() this lets checkpoints capture a stream mid-sequence
     * without perturbing it.
     */
    void state(uint64_t out[4]) const;

    /** Restore a state previously captured with state(). */
    void setState(const uint64_t in[4]);

  private:
    static uint64_t rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t s_[4];
};

} // namespace rr

#endif // RR_BASE_RNG_HH
