#include "traffic.h"

#include <algorithm>
#include <stdexcept>

#include "service/model_cache.h"
#include "workloads/registry.h"

namespace stackbench {

namespace {

/** Seed domains, so no two generators ever hand out the same seed. */
constexpr uint64_t kColdDomain = 0xC01D;
constexpr uint64_t kUniqueDomain = 0x0111;
constexpr uint64_t kRepeatDomain = 0x4E9E;

} // namespace

const std::vector<Pair> &
table1Pairs()
{
    static const std::vector<Pair> pairs = [] {
        std::vector<Pair> out;
        for (const auto &workload :
             dac::workloads::Registry::instance().all()) {
            for (const double size : workload->paperSizes())
                out.push_back({workload->abbrev(), size});
        }
        return out;
    }();
    return pairs;
}

const std::vector<KeyGroup> &
modelKeys()
{
    static const std::vector<KeyGroup> keys = [] {
        std::vector<KeyGroup> out;
        const auto &pairs = table1Pairs();
        for (size_t p = 0; p < pairs.size(); ++p) {
            const int band = dac::service::sizeBandOf(pairs[p].nativeSize);
            auto it = std::find_if(out.begin(), out.end(),
                                   [&](const KeyGroup &key) {
                                       return key.workload ==
                                                  pairs[p].workload &&
                                              key.sizeBand == band;
                                   });
            if (it == out.end()) {
                out.push_back({pairs[p].workload, band, {}});
                it = out.end() - 1;
            }
            it->pairs.push_back(p);
        }
        return out;
    }();
    return keys;
}

size_t
keyOfPair(size_t pair)
{
    const auto &keys = modelKeys();
    for (size_t k = 0; k < keys.size(); ++k) {
        if (std::find(keys[k].pairs.begin(), keys[k].pairs.end(), pair) !=
            keys[k].pairs.end())
            return k;
    }
    throw std::out_of_range("pair index outside Table 1");
}

size_t
pairOf(const dac::service::TuneRequest &request)
{
    const auto &pairs = table1Pairs();
    for (size_t p = 0; p < pairs.size(); ++p) {
        if (pairs[p].workload == request.workload &&
            pairs[p].nativeSize == request.nativeSize)
            return p;
    }
    throw std::out_of_range("request is not a Table 1 pair");
}

dac::service::TuneRequest
makeRequest(size_t pair, uint64_t seed)
{
    dac::service::TuneRequest request;
    request.workload = table1Pairs().at(pair).workload;
    request.nativeSize = table1Pairs().at(pair).nativeSize;
    request.seed = seed;
    return request;
}

std::vector<dac::service::TuneRequest>
coldBuildRound(uint64_t run_seed, size_t round)
{
    const auto &keys = modelKeys();
    std::vector<dac::service::TuneRequest> out;
    out.reserve(keys.size());
    for (size_t k = 0; k < keys.size(); ++k) {
        const auto &members = keys[k].pairs;
        const size_t pair = members[(round + k) % members.size()];
        out.push_back(makeRequest(
            pair, dac::combineSeed(dac::combineSeed(run_seed, kColdDomain),
                                   round * keys.size() + k)));
    }
    return out;
}

UniqueStream::UniqueStream(uint64_t run_seed)
    : rng(dac::combineSeed(run_seed, kUniqueDomain)),
      base(dac::combineSeed(run_seed, kUniqueDomain + 1))
{
}

std::vector<dac::service::TuneRequest>
UniqueStream::nextBatch(size_t size)
{
    std::vector<dac::service::TuneRequest> out;
    out.reserve(size);
    for (size_t i = 0; i < size; ++i) {
        const size_t pair = rng.index(table1Pairs().size());
        out.push_back(makeRequest(pair, dac::combineSeed(base, issued++)));
    }
    return out;
}

std::vector<dac::service::TuneRequest>
serveUniqueSchedule(uint64_t run_seed, size_t count)
{
    return UniqueStream(run_seed).nextBatch(count);
}

RepeatStream::RepeatStream(uint64_t run_seed, size_t connection)
    : rng(dac::combineSeed(dac::combineSeed(run_seed, kRepeatDomain),
                           connection + 1))
{
    for (size_t s = 0; s < kRepeatSeeds; ++s) {
        seeds.push_back(dac::combineSeed(
            dac::combineSeed(run_seed, kRepeatDomain), 1000 + s));
    }
    double total = 0.0;
    for (size_t rank = 0; rank < table1Pairs().size(); ++rank) {
        total += 1.0 / static_cast<double>(rank + 1);
        cdf.push_back(total);
    }
    for (double &c : cdf)
        c /= total;
}

std::vector<dac::service::TuneRequest>
RepeatStream::nextBatch(size_t size)
{
    std::vector<dac::service::TuneRequest> out;
    out.reserve(size);
    for (size_t i = 0; i < size; ++i) {
        const auto it = std::lower_bound(cdf.begin(), cdf.end(),
                                         rng.uniform());
        const size_t pair = it == cdf.end()
                                ? cdf.size() - 1
                                : static_cast<size_t>(it - cdf.begin());
        out.push_back(makeRequest(pair, seeds[rng.index(seeds.size())]));
    }
    return out;
}

} // namespace stackbench
