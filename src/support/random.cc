#include "support/random.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "support/logging.h"

namespace dac {

Rng::Engine::Engine(uint64_t seed)
{
    state[0] = seed;
    for (size_t i = 1; i < kWords; ++i) {
        const uint64_t prev = state[i - 1];
        state[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }
}

void
Rng::Engine::twist()
{
    constexpr size_t kShift = 156;
    constexpr uint64_t kUpper = ~uint64_t{0} << 31;
    constexpr uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
    // The matrix term is added when y is odd: 0 - (y & 1) is all ones
    // exactly then, so the mask replaces the data-dependent branch.
    auto mix = [](uint64_t word, uint64_t successor, uint64_t far) {
        const uint64_t y = (word & kUpper) | (successor & ~kUpper);
        return far ^ (y >> 1) ^ (kMatrix & (0 - (y & 1)));
    };
    size_t k = 0;
    for (; k < kWords - kShift; ++k)
        state[k] = mix(state[k], state[k + 1], state[k + kShift]);
    for (; k < kWords - 1; ++k) {
        state[k] = mix(state[k], state[k + 1],
                       state[k + kShift - kWords]);
    }
    state[kWords - 1] = mix(state[kWords - 1], state[0],
                            state[kShift - 1]);
    next = 0;
}

double
Rng::uniformReal(double lo, double hi)
{
    DAC_ASSERT(lo <= hi, "uniformReal: lo > hi");
    return lo + (hi - lo) * uniform();
}

int64_t
Rng::uniformInt(int64_t lo, int64_t hi)
{
    DAC_ASSERT(lo <= hi, "uniformInt: lo > hi");
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine);
}

double
Rng::normal(double mean, double stddev)
{
    std::normal_distribution<double> dist(mean, stddev);
    return dist(engine);
}

double
Rng::lognormalFactor(double sigma)
{
    return std::exp(normal(0.0, sigma));
}

size_t
Rng::index(size_t n)
{
    DAC_ASSERT(n > 0, "index: empty range");
    return static_cast<size_t>(uniformInt(0, static_cast<int64_t>(n) - 1));
}

Rng
Rng::fork(uint64_t stream_id)
{
    const uint64_t material = engine();
    return Rng(combineSeed(material, stream_id));
}

Rng
Rng::splitStream(uint64_t stream_id) const
{
    // The extra constant keeps the splitStream family disjoint from
    // fork(), which hashes raw engine output instead of the seed.
    const uint64_t material = combineSeed(constructionSeed,
                                          0x5eedfacecafef00dULL);
    return Rng(combineSeed(material, stream_id));
}

std::vector<size_t>
Rng::sampleIndices(size_t n, size_t k)
{
    k = std::min(k, n);
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i)
        all[i] = i;
    // Partial Fisher-Yates: the first k entries form the sample.
    for (size_t i = 0; i < k; ++i) {
        const size_t j = i + index(n - i);
        std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
}

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
combineSeed(uint64_t a, uint64_t b)
{
    return splitmix64(splitmix64(a) ^ (splitmix64(b) + 0x9e3779b97f4a7c15ULL));
}

} // namespace dac
