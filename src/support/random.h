/**
 * @file
 * Deterministic random number generation for the DAC library.
 *
 * Every stochastic component in the library draws from an explicitly
 * seeded Rng; there is no global generator and no wall-clock seeding, so
 * simulations, model training, and searches are reproducible bit-for-bit.
 */

#ifndef DAC_SUPPORT_RANDOM_H
#define DAC_SUPPORT_RANDOM_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <random>
#include <vector>

namespace dac {

/**
 * A seeded pseudo-random number generator.
 *
 * An MT19937-64 engine (the stream of the standard 64-bit Mersenne
 * Twister, bit for bit; see Engine) with the distribution helpers the
 * library needs. Copyable; copies continue the same stream
 * independently.
 *
 * NOT thread-safe: every draw mutates the engine, so a single Rng must
 * never be shared across threads without external synchronization.
 * Concurrent components instead give each worker its own stream via
 * splitStream(i), which derives independent generators from one seed
 * without consuming any state from the parent.
 */
class Rng
{
  public:
    /** Construct with an explicit seed. */
    explicit Rng(uint64_t seed) : engine(seed), constructionSeed(seed) {}

    /** Uniform real in [0, 1): canonical() of one engine draw. */
    double uniform() { return canonical(engine()); }

    /**
     * The uniform() value of raw draw x: exactly what
     * std::generate_canonical<double, 53> makes of x, i.e. double(x)
     * rounded once, times 2^-64, with a result of 1 pulled down to the
     * largest double below 1.
     */
    static double
    canonical(uint64_t x)
    {
        // Both 32-bit halves convert exactly and their sum rounds once,
        // so this equals double(x) without the branch an unsigned
        // 64-bit conversion costs on x86-64.
        const double hi = static_cast<double>(static_cast<int64_t>(x >> 32));
        const double lo =
            static_cast<double>(static_cast<int64_t>(x & 0xffffffffULL));
        return std::min((hi * 0x1p32 + lo) * 0x1p-64, 0x1.fffffffffffffp-1);
    }

    /** Uniform real in [lo, hi). Requires lo <= hi. */
    double uniformReal(double lo, double hi);

    /** Uniform integer in the closed interval [lo, hi]. */
    int64_t uniformInt(int64_t lo, int64_t hi);

    /** Gaussian with the given mean and standard deviation. */
    double normal(double mean, double stddev);

    /**
     * Log-normal noise factor with median 1.
     *
     * @param sigma Shape parameter of the underlying normal.
     * @return A positive multiplicative noise factor.
     */
    double lognormalFactor(double sigma);

    /** Bernoulli trial with success probability p (clamped to [0,1]);
     *  always consumes one uniform() draw. */
    bool
    bernoulli(double p)
    {
        return uniform() < std::clamp(p, 0.0, 1.0);
    }

    /** Uniform index in [0, n). Requires n > 0. */
    size_t index(size_t n);

    /**
     * Derive an independent child generator.
     *
     * Mixes the stream id into fresh seed material so sub-streams do not
     * overlap even for adjacent ids. Advances this generator's state;
     * use splitStream() when the parent must stay untouched.
     */
    Rng fork(uint64_t stream_id);

    /**
     * Derive the i-th of a family of independent per-worker streams.
     *
     * Unlike fork(), this is a pure function of the construction seed
     * and the stream id: it does not advance this generator, so any
     * number of workers can be handed splitStream(0..k-1) up front and
     * the parent's subsequent draws are unaffected. Streams with
     * distinct ids do not overlap, and the family is disjoint from the
     * fork() family.
     */
    Rng splitStream(uint64_t stream_id) const;

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i) {
            std::swap(items[i - 1], items[index(i)]);
        }
    }

    /** Sample of k distinct indices from [0, n) (k clamped to n). */
    std::vector<size_t> sampleIndices(size_t n, size_t k);

    /** Raw 64-bit draw, exposed for hashing/forking use. */
    uint64_t raw() { return engine(); }

  private:
    /**
     * MT19937-64 (Matsumoto & Nishimura): the seeding, recurrence and
     * tempering of std::mt19937_64, so every output equals the
     * standard engine's for the same seed. The twist selects its
     * matrix term with a mask rather than a branch on a random bit.
     * A UniformRandomBitGenerator, so the std distributions draw from
     * it exactly as they would from std::mt19937_64.
     */
    class Engine
    {
      public:
        using result_type = uint64_t;

        explicit Engine(uint64_t seed);

        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return ~result_type{0}; }

        result_type
        operator()()
        {
            if (next == kWords)
                twist();
            uint64_t z = state[next++];
            z ^= (z >> 29) & 0x5555555555555555ULL;
            z ^= (z << 17) & 0x71d67fffeda60000ULL;
            z ^= (z << 37) & 0xfff7eee000000000ULL;
            return z ^ (z >> 43);
        }

      private:
        static constexpr size_t kWords = 312;

        /** Regenerate all kWords state words; resets `next`. */
        void twist();

        std::array<uint64_t, kWords> state;
        size_t next = kWords;
    };

    Engine engine;
    /** Seed this Rng was built from; splitStream() derives from it. */
    uint64_t constructionSeed;
};

/** SplitMix64 hash step; used for stable seed derivation. */
uint64_t splitmix64(uint64_t x);

/** Combine seed material into a single stable 64-bit seed. */
uint64_t combineSeed(uint64_t a, uint64_t b);

} // namespace dac

#endif // DAC_SUPPORT_RANDOM_H
