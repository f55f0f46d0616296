/**
 * @file
 * Deterministic pseudo-random number generation for workload synthesis.
 *
 * A small xoshiro256** implementation: fast, high quality, and —
 * unlike std::mt19937 — guaranteed identical across standard libraries,
 * which keeps generated graphs reproducible everywhere.
 */

#ifndef GMOMS_SIM_RNG_HH
#define GMOMS_SIM_RNG_HH

#include <cstdint>

namespace gmoms
{

class Rng
{
  public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull)
    {
        // splitmix64 expansion of the seed into the xoshiro state.
        std::uint64_t x = seed;
        for (auto& word : s_) {
            x += 0x9e3779b97f4a7c15ull;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
    }

    /** Uniform 64-bit value. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
        const std::uint64_t t = s_[1] << 17;
        s_[2] ^= s_[0];
        s_[3] ^= s_[1];
        s_[1] ^= s_[2];
        s_[0] ^= s_[3];
        s_[2] ^= t;
        s_[3] = rotl(s_[3], 45);
        return result;
    }

    /** Uniform value in [0, bound). @p bound must be nonzero. */
    std::uint64_t below(std::uint64_t bound) { return belowOf(next(), bound); }

    /** Uniform double in [0, 1). */
    double uniform() { return uniformOf(next()); }

    /** below()'s value for the word @p word, so batched draws can take
     *  the words first and convert them later. */
    static std::uint64_t
    belowOf(std::uint64_t word, std::uint64_t bound)
    {
        // Lemire-style multiply-shift range reduction (slight bias is
        // irrelevant for workload generation).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(word) * bound) >> 64);
    }

    /** uniform()'s value for the word @p word. */
    static double
    uniformOf(std::uint64_t word)
    {
        return static_cast<double>(word >> 11) * 0x1.0p-53;
    }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

} // namespace gmoms

#endif // GMOMS_SIM_RNG_HH
