/** @file Tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <random>
#include <set>

#include "support/random.h"

namespace dac {
namespace {

/**
 * The oracle Rng: every helper as the library once wrote it, over
 * std::mt19937_64 and the std distributions. The in-repo engine and
 * canonical conversion must reproduce each of its draws bit for bit.
 */
class OracleRng
{
  public:
    explicit OracleRng(uint64_t seed) : engine(seed), seed(seed) {}

    uint64_t raw() { return engine(); }

    double
    uniform()
    {
        return std::uniform_real_distribution<double>(0.0, 1.0)(engine);
    }

    bool
    bernoulli(double p)
    {
        p = std::clamp(p, 0.0, 1.0);
        return uniform() < p;
    }

    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        return std::uniform_int_distribution<int64_t>(lo, hi)(engine);
    }

    size_t
    index(size_t n)
    {
        return static_cast<size_t>(
            uniformInt(0, static_cast<int64_t>(n) - 1));
    }

    double
    normal(double mean, double stddev)
    {
        return std::normal_distribution<double>(mean, stddev)(engine);
    }

    double
    lognormalFactor(double sigma)
    {
        return std::exp(normal(0.0, sigma));
    }

    OracleRng
    fork(uint64_t id)
    {
        return OracleRng(combineSeed(engine(), id));
    }

    OracleRng
    splitStream(uint64_t id) const
    {
        return OracleRng(combineSeed(
            combineSeed(seed, 0x5eedfacecafef00dULL), id));
    }

    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[index(i)]);
    }

    std::vector<size_t>
    sampleIndices(size_t n, size_t k)
    {
        k = std::min(k, n);
        std::vector<size_t> all(n);
        std::iota(all.begin(), all.end(), size_t{0});
        for (size_t i = 0; i < k; ++i)
            std::swap(all[i], all[i + index(n - i)]);
        all.resize(k);
        return all;
    }

  private:
    std::mt19937_64 engine;
    uint64_t seed;
};

uint64_t
bits(double x)
{
    return std::bit_cast<uint64_t>(x);
}

/** Both generators' next few raw draws agree (child streams). */
bool
sameHead(Rng rng, OracleRng oracle)
{
    for (int i = 0; i < 4; ++i) {
        if (rng.raw() != oracle.raw())
            return false;
    }
    return true;
}

/**
 * Drives `rng` and `oracle` through `steps` mixed draws — every
 * helper, with arguments that vary per step — and returns the first
 * step whose results differ, or `steps` when none does.
 */
size_t
firstDivergence(Rng &rng, OracleRng &oracle, size_t steps)
{
    constexpr double kBernoulliP[] = {-1.0, 0.0, 0.01, 0.5,
                                      0.9,  1.0, 2.0};
    constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
    constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
    for (size_t s = 0; s < steps; ++s) {
        bool same = true;
        switch (s % 12) {
          case 0:
            same = rng.raw() == oracle.raw();
            break;
          case 1:
          case 2:
            same = bits(rng.uniform()) == bits(oracle.uniform());
            break;
          case 3: {
            const double p = kBernoulliP[(s / 12) % 7];
            same = rng.bernoulli(p) == oracle.bernoulli(p);
            break;
          }
          case 4: {
            // Small ranges, and every 7th step one above 2^32.
            const size_t scale = s % 7 == 0 ? size_t{1} << 30 : 1;
            const size_t n = 1 + (s % 1000) * scale;
            same = rng.index(n) == oracle.index(n);
            break;
          }
          case 5: {
            const int64_t lo = -static_cast<int64_t>(s % 97);
            const int64_t hi =
                s % 5 == 0 ? kMax : lo + static_cast<int64_t>(s % 1013);
            same = rng.uniformInt(lo, hi) == oracle.uniformInt(lo, hi) &&
                rng.uniformInt(kMin, kMax) == oracle.uniformInt(kMin, kMax);
            break;
          }
          case 6: {
            const double mean = static_cast<double>(s % 11) - 5.0;
            const double sd = 0.1 + static_cast<double>(s % 3);
            same = bits(rng.normal(mean, sd)) ==
                bits(oracle.normal(mean, sd));
            break;
          }
          case 7:
            same = bits(rng.lognormalFactor(0.3)) ==
                bits(oracle.lognormalFactor(0.3));
            break;
          case 8:
            same = bits(rng.uniformReal(-3.0, 5.0)) ==
                bits(-3.0 + 8.0 * oracle.uniform());
            break;
          case 9:
            if (s % 1024 == 9) {
                // Child streams: fork() consumes one draw, splitStream()
                // none; both must hand out the oracle's children.
                same = sameHead(rng.fork(s), oracle.fork(s)) &&
                    sameHead(rng.splitStream(s), oracle.splitStream(s));
            } else {
                same = rng.raw() == oracle.raw();
            }
            break;
          case 10:
            if (s % 256 == 10) {
                std::vector<int> a(20);
                std::iota(a.begin(), a.end(), 0);
                std::vector<int> b = a;
                rng.shuffle(a);
                oracle.shuffle(b);
                same = a == b;
            } else {
                same = bits(rng.uniform()) == bits(oracle.uniform());
            }
            break;
          default:
            if (s % 256 == 11) {
                same = rng.sampleIndices(50, 10) ==
                    oracle.sampleIndices(50, 10);
            } else {
                same = rng.bernoulli(0.5) == oracle.bernoulli(0.5);
            }
            break;
        }
        if (!same)
            return s;
    }
    return steps;
}

TEST(RngOracle, EveryDrawMatchesStdMt19937_64)
{
    // Zero, one, the standard default seed, all ones, and a hashed
    // value. 2^20 steps draw well over a million engine outputs per
    // seed, crossing thousands of 312-word twists.
    const uint64_t seeds[] = {0, 1, 5489, ~uint64_t{0},
                              splitmix64(20181024)};
    constexpr size_t kSteps = size_t{1} << 20;
    for (const uint64_t seed : seeds) {
        Rng rng(seed);
        OracleRng oracle(seed);
        EXPECT_EQ(firstDivergence(rng, oracle, kSteps), kSteps)
            << "seed " << seed;
    }
}

TEST(RngOracle, CopyContinuesTheSameStream)
{
    Rng rng(77);
    OracleRng oracle(77);
    ASSERT_EQ(firstDivergence(rng, oracle, 1000), 1000u);
    Rng copy = rng;
    OracleRng oracleCopy = oracle;
    // The original and its copy advance independently, each still
    // on the oracle's stream, across several twists.
    EXPECT_EQ(firstDivergence(rng, oracle, 5000), 5000u);
    EXPECT_EQ(firstDivergence(copy, oracleCopy, 5000), 5000u);
    Rng again = rng;
    for (int i = 0; i < 2000; ++i)
        ASSERT_EQ(again.raw(), rng.raw());
}

TEST(RngOracle, CanonicalMatchesGenerateCanonical)
{
    // The conversion's edges, which random draws essentially never
    // reach: zero, exact small values, values that round to an even
    // neighbour, and the top 2^10 draws that round up to 2^64 and are
    // clamped below 1.
    struct Fixed
    {
        using result_type = uint64_t;
        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return ~result_type{0}; }
        result_type value;
        result_type operator()() { return value; }
    };
    const uint64_t top = ~uint64_t{0};
    const uint64_t edges[] = {0,
                              1,
                              2,
                              (uint64_t{1} << 53) - 1,
                              uint64_t{1} << 53,
                              (uint64_t{1} << 53) + 1,
                              (uint64_t{1} << 54) + 2,
                              (uint64_t{1} << 54) + 6,
                              uint64_t{1} << 63,
                              (uint64_t{1} << 63) + (uint64_t{1} << 10),
                              (uint64_t{1} << 63) + (uint64_t{3} << 10),
                              0xffffffffULL,
                              0x100000000ULL,
                              top - (uint64_t{1} << 11),
                              top - (uint64_t{1} << 10) - 1,
                              top - (uint64_t{1} << 10),
                              top - (uint64_t{1} << 10) + 1,
                              top - 1,
                              top};
    for (const uint64_t x : edges) {
        Fixed urng{x};
        const double expected =
            std::generate_canonical<double, 53>(urng);
        EXPECT_EQ(bits(Rng::canonical(x)), bits(expected)) << x;
        EXPECT_LT(Rng::canonical(x), 1.0);
    }
    EXPECT_EQ(Rng::canonical(top), std::nextafter(1.0, 0.0));
    EXPECT_EQ(Rng::canonical(0), 0.0);
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.uniform() == b.uniform())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRealRespectsBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.uniformReal(-3.0, 5.0);
        EXPECT_GE(v, -3.0);
        EXPECT_LT(v, 5.0);
    }
}

TEST(Rng, UniformIntCoversRangeInclusive)
{
    Rng rng(3);
    std::set<int64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.uniformInt(0, 5));
    EXPECT_EQ(seen.size(), 6u);
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), 5);
}

TEST(Rng, NormalHasRequestedMoments)
{
    Rng rng(11);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(2.0, 3.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.1);
    EXPECT_NEAR(var, 9.0, 0.5);
}

TEST(Rng, LognormalFactorIsPositiveWithMedianOne)
{
    Rng rng(13);
    std::vector<double> xs;
    for (int i = 0; i < 5001; ++i) {
        const double f = rng.lognormalFactor(0.3);
        EXPECT_GT(f, 0.0);
        xs.push_back(f);
    }
    std::nth_element(xs.begin(), xs.begin() + 2500, xs.end());
    EXPECT_NEAR(xs[2500], 1.0, 0.05);
}

TEST(Rng, BernoulliExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliRate)
{
    Rng rng(19);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 10000.0, 0.3, 0.02);
}

TEST(Rng, IndexStaysInRange)
{
    Rng rng(23);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.index(7), 7u);
}

TEST(Rng, ForkProducesIndependentStreams)
{
    Rng parent(5);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (c1.uniform() == c2.uniform())
            ++same;
    }
    EXPECT_LT(same, 3);
}

TEST(Rng, ForkIsDeterministic)
{
    Rng a(5);
    Rng b(5);
    Rng ca = a.fork(9);
    Rng cb = b.fork(9);
    for (int i = 0; i < 50; ++i)
        EXPECT_DOUBLE_EQ(ca.uniform(), cb.uniform());
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(29);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto copy = v;
    rng.shuffle(copy);
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, v);
}

TEST(Rng, SampleIndicesDistinctAndBounded)
{
    Rng rng(31);
    const auto s = rng.sampleIndices(20, 8);
    EXPECT_EQ(s.size(), 8u);
    std::set<size_t> uniq(s.begin(), s.end());
    EXPECT_EQ(uniq.size(), 8u);
    for (size_t idx : s)
        EXPECT_LT(idx, 20u);
}

TEST(Rng, SampleIndicesClampsToPopulation)
{
    Rng rng(37);
    EXPECT_EQ(rng.sampleIndices(3, 10).size(), 3u);
}

TEST(SplitMix, IsDeterministicAndSpreads)
{
    EXPECT_EQ(splitmix64(1), splitmix64(1));
    EXPECT_NE(splitmix64(1), splitmix64(2));
    EXPECT_NE(combineSeed(1, 2), combineSeed(2, 1));
}

TEST(Rng, SplitStreamIsReproducible)
{
    Rng a(99);
    Rng b(99);
    EXPECT_EQ(a.splitStream(4).raw(), b.splitStream(4).raw());
}

TEST(Rng, SplitStreamsAreIndependentPerId)
{
    Rng rng(99);
    EXPECT_NE(rng.splitStream(0).raw(), rng.splitStream(1).raw());
    // ...and disjoint from the fork() family.
    Rng forker(99);
    EXPECT_NE(rng.splitStream(0).raw(), forker.fork(0).raw());
}

TEST(Rng, SplitStreamDoesNotAdvanceTheParent)
{
    Rng advanced(123);
    Rng untouched(123);
    advanced.splitStream(0);
    advanced.splitStream(1);
    // The parent stream continues exactly as if splitStream had
    // never been called (unlike fork(), which consumes a draw).
    EXPECT_EQ(advanced.raw(), untouched.raw());
    EXPECT_EQ(advanced.raw(), untouched.raw());
}

TEST(Rng, SplitStreamDerivesFromConstructionSeed)
{
    // Streams are a pure function of (seed, id): drawing from the
    // parent first does not change what splitStream hands out.
    Rng fresh(7);
    Rng drained(7);
    drained.raw();
    drained.uniform();
    EXPECT_EQ(fresh.splitStream(2).raw(),
              drained.splitStream(2).raw());
}

} // namespace
} // namespace dac
