/** @file Tests for the LRU model cache and its build coalescing. */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "service/model_cache.h"

namespace dac::service {
namespace {

ModelKey
key(const std::string &workload, int band = 0)
{
    return ModelKey{workload, "test-cluster", band};
}

std::shared_ptr<const CachedModel>
dummyModel(double error_pct)
{
    auto model = std::make_shared<CachedModel>();
    model->modelErrorPct = error_pct;
    return model;
}

TEST(ModelCache, HitAndMissCounters)
{
    ModelCache cache(4);
    EXPECT_EQ(cache.lookup(key("PR")), nullptr);
    cache.insert(key("PR"), dummyModel(1.0));
    const auto found = cache.lookup(key("PR"));
    ASSERT_NE(found, nullptr);
    EXPECT_DOUBLE_EQ(found->modelErrorPct, 1.0);
    // Same workload, different band: a distinct model.
    EXPECT_EQ(cache.lookup(key("PR", 3)), nullptr);

    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.size, 1u);
    EXPECT_EQ(stats.capacity, 4u);
}

TEST(ModelCache, EvictsLeastRecentlyUsed)
{
    ModelCache cache(2);
    cache.insert(key("A"), dummyModel(1));
    cache.insert(key("B"), dummyModel(2));
    // Touch A so B becomes the LRU entry.
    EXPECT_NE(cache.lookup(key("A")), nullptr);
    cache.insert(key("C"), dummyModel(3));

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup(key("B")), nullptr); // evicted
    EXPECT_NE(cache.lookup(key("A")), nullptr);
    EXPECT_NE(cache.lookup(key("C")), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);

    const auto order = cache.keysByRecency();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0].workload, "C"); // most recently touched
    EXPECT_EQ(order[1].workload, "A");
}

TEST(ModelCache, ReinsertRefreshesInsteadOfDuplicating)
{
    ModelCache cache(2);
    cache.insert(key("A"), dummyModel(1));
    cache.insert(key("A"), dummyModel(9));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_DOUBLE_EQ(cache.lookup(key("A"))->modelErrorPct, 9.0);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ModelCache, GetOrBuildCachesTheResult)
{
    ModelCache cache(4);
    int builds = 0;
    const auto build = [&]() {
        ++builds;
        return dummyModel(5);
    };
    const auto first = cache.getOrBuild(key("KM"), build);
    const auto second = cache.getOrBuild(key("KM"), build);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.get(), second.get());
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST(ModelCache, ConcurrentBuildsOfOneKeyCoalesce)
{
    ModelCache cache(4);
    std::atomic<int> builds{0};
    constexpr int kThreads = 4;

    const auto build = [&]() {
        ++builds;
        // Hold the build open until every other thread has joined this
        // in-flight build, so all of them must coalesce.
        while (cache.stats().coalesced <
               static_cast<uint64_t>(kThreads - 1))
            std::this_thread::yield();
        return dummyModel(7);
    };

    std::vector<std::thread> threads;
    std::vector<std::shared_ptr<const CachedModel>> results(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            results[t] = cache.getOrBuild(key("TS"), build);
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(builds.load(), 1);
    for (const auto &result : results) {
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result.get(), results[0].get());
    }
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.coalesced, 3u);
    EXPECT_GT(stats.hitRate(), 0.5);
}

TEST(ModelCache, BuilderFailureCachesNothing)
{
    ModelCache cache(4);
    EXPECT_THROW(cache.getOrBuild(key("WC"),
                                  []() -> std::shared_ptr<
                                      const CachedModel> {
                                      throw std::runtime_error("no data");
                                  }),
                 std::runtime_error);
    EXPECT_EQ(cache.size(), 0u);
    // A later build of the same key runs afresh and succeeds.
    int builds = 0;
    (void)cache.getOrBuild(key("WC"), [&]() {
        ++builds;
        return dummyModel(2);
    });
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(ModelCacheSharding, HashSeparatesFieldBoundaries)
{
    // ("ab","c") vs ("a","bc"): concatenation-equal but distinct keys
    // must hash apart (the length fold guarantees it).
    const ModelKey a{"ab", "c", 0};
    const ModelKey b{"a", "bc", 0};
    EXPECT_NE(a.stableHash(), b.stableHash());
}

TEST(ModelCacheSharding, MultithreadedHammerLosesNoCoalescing)
{
    // Hammer getOrBuild from many threads over few keys: every key is
    // built exactly once, and the accounting balances — every call is
    // a hit, a miss (the builder), or a coalesced join. Run under TSan
    // in CI, this is also the cache's data-race check. The cache holds
    // exactly the hot keys, so any lost entry would show as a rebuild.
    constexpr int kThreads = 8;
    constexpr int kOpsPerThread = 200;
    constexpr int kKeys = 5;
    ModelCache cache(kKeys);
    std::atomic<int> builds[kKeys] = {};

    std::vector<std::thread> threads;
    std::atomic<int> mismatches{0};
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t]() {
            for (int i = 0; i < kOpsPerThread; ++i) {
                const int which = (t + i) % kKeys;
                std::string name = "K";
                name += std::to_string(which);
                const ModelKey k = key(name);
                const auto model = cache.getOrBuild(k, [&]() {
                    builds[which].fetch_add(1,
                                            std::memory_order_relaxed);
                    // Widen the in-flight window so joins happen.
                    std::this_thread::yield();
                    return dummyModel(which);
                });
                if (model == nullptr ||
                    model->modelErrorPct !=
                        static_cast<double>(which))
                    mismatches.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(mismatches.load(std::memory_order_relaxed), 0);
    for (int k = 0; k < kKeys; ++k)
        EXPECT_EQ(builds[k].load(std::memory_order_relaxed), 1)
            << "key " << k << " built more than once: coalescing lost";
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses + stats.coalesced,
              static_cast<uint64_t>(kThreads) * kOpsPerThread);
    EXPECT_EQ(stats.misses, static_cast<uint64_t>(kKeys));
    EXPECT_EQ(stats.evictions, 0u);
    EXPECT_EQ(cache.size(), static_cast<size_t>(kKeys));
}

TEST(ModelCache, SizeBandQuantizesByPowersOfTwo)
{
    EXPECT_EQ(sizeBandOf(1.0), 0);
    EXPECT_EQ(sizeBandOf(1.9), 0);
    EXPECT_EQ(sizeBandOf(2.0), 1);
    EXPECT_EQ(sizeBandOf(20.0), 4);
    EXPECT_EQ(sizeBandOf(0.5), -1);
    EXPECT_THROW((void)sizeBandOf(0.0), std::logic_error);
}

} // namespace
} // namespace dac::service
