/**
 * @file
 * Deterministic, seedable random number generators for the simulator.
 *
 * Everything stochastic in the repo (Poisson arrival traces for the
 * serving simulator, randomized test fixtures) must be bit-identical
 * across platforms and `--jobs` counts, so
 * std::mt19937 / std::*_distribution are off limits: libstdc++ and
 * libc++ are free to (and do) implement the distributions differently.
 * These generators are specified to the bit:
 *
 *  - splitmix64 — Steele/Lea/Flood's 64-bit mixer.  One multiply-xor
 *    pipeline per draw; used directly and to expand user seeds into
 *    well-mixed initial states.
 *  - Pcg32 — O'Neill's PCG-XSH-RR 64/32.  Small, fast, and supports
 *    independent streams via the odd increment, so every consumer
 *    (trace generator, per-test fixture) gets its own sequence from
 *    one scenario-level seed.
 *
 * The first 64 draws of canonical seeds are pinned by tests/rng_test
 * — any change to these functions is a breaking change to every
 * committed serving scenario band and bench baseline.
 */
#pragma once

#include <cmath>
#include <cstdint>

namespace tcsim {

/** One splitmix64 step: advances @p state and returns the next draw. */
inline uint64_t
splitmix64_next(uint64_t& state)
{
    uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Stateful splitmix64 stream. */
class SplitMix64 {
  public:
    explicit SplitMix64(uint64_t seed) : state_(seed) {}

    uint64_t next() { return splitmix64_next(state_); }

  private:
    uint64_t state_;
};

/**
 * PCG-XSH-RR 64/32 (O'Neill).  64-bit LCG state, 32-bit output via
 * xorshift-high + random rotation.  `stream` selects one of 2^63
 * independent sequences; the same (seed, stream) pair always yields
 * the same draws.
 */
class Pcg32 {
  public:
    explicit Pcg32(uint64_t seed, uint64_t stream = 0)
        : state_(0), inc_((stream << 1) | 1u)
    {
        next_u32();
        state_ += seed;
        next_u32();
    }

    uint32_t next_u32()
    {
        const uint64_t old = state_;
        state_ = old * 6364136223846793005ull + inc_;
        const uint32_t xorshifted =
            static_cast<uint32_t>(((old >> 18) ^ old) >> 27);
        const uint32_t rot = static_cast<uint32_t>(old >> 59);
        return (xorshifted >> rot) | (xorshifted << ((32 - rot) & 31));
    }

    uint64_t next_u64()
    {
        const uint64_t hi = next_u32();
        return (hi << 32) | next_u32();
    }

    /** Uniform double in [0, 1) with the full 53 bits of mantissa. */
    double uniform()
    {
        return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
    }

    /**
     * Exponentially distributed draw with the given mean (inverse-CDF
     * method).  uniform() < 1 so the log argument stays in (0, 1].
     */
    double exponential(double mean)
    {
        return -mean * std::log(1.0 - uniform());
    }

  private:
    uint64_t state_;
    uint64_t inc_;
};

}  // namespace tcsim
