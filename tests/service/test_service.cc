/** @file Tests for the concurrent tuning service facade. */

#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <future>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "service/service.h"
#include "workloads/registry.h"

namespace dac::service {
namespace {

ServiceOptions
fastOptions(size_t threads = 2)
{
    ServiceOptions opt;
    opt.threads = threads;
    opt.modelCacheCapacity = 4;
    opt.tuning.collect.datasetCount = 4;
    opt.tuning.collect.runsPerDataset = 12;
    opt.tuning.hm.firstOrder.maxTrees = 60;
    opt.tuning.hm.firstOrder.convergencePatience = 30;
    opt.tuning.ga.maxGenerations = 25;
    return opt;
}

TuneRequest
request(const std::string &workload, double size, uint64_t seed = 17)
{
    TuneRequest req;
    req.workload = workload;
    req.nativeSize = size;
    req.seed = seed;
    return req;
}

/** `a` and `b` are the same answer bit for bit (coalesced and
 *  latencySec aside, which describe the delivery, not the answer). */
void
expectSameAnswer(const TuneResponse &a, const TuneResponse &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(std::bit_cast<uint64_t>(a.nativeSize),
              std::bit_cast<uint64_t>(b.nativeSize));
    EXPECT_EQ(a.best.values(), b.best.values());
    EXPECT_EQ(std::bit_cast<uint64_t>(a.predictedTimeSec),
              std::bit_cast<uint64_t>(b.predictedTimeSec));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.modelErrorPct),
              std::bit_cast<uint64_t>(b.modelErrorPct));
    EXPECT_EQ(a.modelCacheHit, b.modelCacheHit);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.warnings.size(), b.warnings.size());
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].phase, b.phases[i].phase);
        EXPECT_EQ(std::bit_cast<uint64_t>(a.phases[i].sec),
                  std::bit_cast<uint64_t>(b.phases[i].sec));
    }
}

/** submitBatch with one promise per request; futures in batch order. */
std::vector<std::future<TuneResponse>>
submitAll(TuningBackend &backend, const std::vector<TuneRequest> &requests)
{
    std::vector<std::future<TuneResponse>> futures;
    std::vector<TuneJob> batch;
    for (const TuneRequest &request : requests) {
        auto promise = std::make_shared<std::promise<TuneResponse>>();
        futures.push_back(promise->get_future());
        batch.push_back(
            {request, [promise](TuneResponse response,
                                std::exception_ptr error) {
                 if (error)
                     promise->set_exception(error);
                 else
                     promise->set_value(std::move(response));
             }});
    }
    backend.submitBatch(std::move(batch));
    return futures;
}

TEST(TuningService, ServesAValidConfiguration)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    TuningService service(sim, fastOptions());
    const auto response = service.submit(request("TS", 40)).get();

    EXPECT_EQ(response.workload, "TS");
    EXPECT_DOUBLE_EQ(response.nativeSize, 40.0);
    EXPECT_EQ(response.best.size(), 41u);
    EXPECT_GT(response.predictedTimeSec, 0.0);
    EXPECT_GT(response.modelErrorPct, 0.0);
    EXPECT_FALSE(response.modelCacheHit);
    EXPECT_GT(response.latencySec, 0.0);
}

TEST(TuningService, RepeatedRequestsHitTheModelCache)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    TuningService service(sim, fastOptions());

    const auto cold = service.submit(request("TS", 40)).get();
    EXPECT_FALSE(cold.modelCacheHit);
    // Same band (40 and 50 are both in [32, 64)): model is reused.
    const auto warm = service.submit(request("TS", 50)).get();
    EXPECT_TRUE(warm.modelCacheHit);

    const auto stats = service.cacheStats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.size, 1u);
    // Warm requests skip collection entirely, so they are much
    // faster than the cold one.
    EXPECT_LT(warm.latencySec, cold.latencySec);
}

TEST(TuningService, DefaultCacheKeepsEveryTable1KeyWarm)
{
    // Table 1's five sizes per workload fall into 12 (workload, size
    // band) model keys, and the default cache has room for all of them:
    // once each key is built, asking again builds nothing, evicts
    // nothing, and repeats every answer bit for bit.
    std::vector<TuneRequest> requests;
    std::set<std::pair<std::string, int>> keys;
    for (const auto &workload : workloads::Registry::instance().all()) {
        for (const double size : workload->paperSizes()) {
            if (keys.emplace(workload->abbrev(), sizeBandOf(size)).second)
                requests.push_back(request(workload->abbrev(), size));
        }
    }
    ASSERT_EQ(requests.size(), 12u);

    ServiceOptions opt; // default pool and cache; small tuning scale
    opt.tuning.collect.datasetCount = 3;
    opt.tuning.collect.runsPerDataset = 12;
    opt.tuning.hm.firstOrder.maxTrees = 20;
    opt.tuning.ga.maxGenerations = 5;
    opt.tuning.ga.populationSize = 20;
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    TuningService service(sim, opt);

    std::vector<TuneResponse> first;
    for (const TuneRequest &req : requests)
        first.push_back(service.submit(req).get());
    const auto warm = service.cacheStats();
    const uint64_t builtWarm =
        service.metrics().counterValue("models.built");

    for (size_t i = 0; i < requests.size(); ++i) {
        SCOPED_TRACE(requests[i].workload + "@" +
                     std::to_string(requests[i].nativeSize));
        const TuneResponse again = service.submit(requests[i]).get();
        EXPECT_TRUE(again.modelCacheHit);
        EXPECT_FALSE(again.degraded);
        EXPECT_EQ(again.best.values(), first[i].best.values());
        EXPECT_EQ(again.predictedTimeSec, first[i].predictedTimeSec);
        EXPECT_EQ(again.modelErrorPct, first[i].modelErrorPct);
    }
    const auto after = service.cacheStats();
    EXPECT_EQ(after.misses - warm.misses, 0u);
    EXPECT_EQ(after.evictions - warm.evictions, 0u);
    EXPECT_EQ(service.metrics().counterValue("models.built"), builtWarm);
    EXPECT_EQ(after.size, requests.size());
}

TEST(TuningService, DifferentBandsTrainDifferentModels)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    TuningService service(sim, fastOptions());
    const auto small = service.submit(request("TS", 10)).get();
    const auto large = service.submit(request("TS", 100)).get();
    EXPECT_FALSE(small.modelCacheHit);
    EXPECT_FALSE(large.modelCacheHit);
    EXPECT_EQ(service.cacheStats().size, 2u);
    // Band-local models adapt the configuration to the datasize.
    EXPECT_NE(small.best.values(), large.best.values());
}

TEST(TuningService, ConcurrentIdenticalRequestsCoalesce)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    TuningService service(sim, fastOptions(2));

    std::vector<std::future<TuneResponse>> futures;
    constexpr int kClients = 6;
    for (int i = 0; i < kClients; ++i)
        futures.push_back(service.submit(request("WC", 80)));

    std::vector<TuneResponse> responses;
    for (auto &f : futures)
        responses.push_back(f.get());

    int coalesced = 0;
    for (const auto &r : responses) {
        EXPECT_EQ(r.best.values(), responses[0].best.values());
        coalesced += r.coalesced ? 1 : 0;
    }
    // All submits landed before the first could finish (a build takes
    // far longer than six submits), so one computation served all.
    EXPECT_EQ(coalesced, kClients - 1);
    EXPECT_EQ(service.metrics().counterValue("requests.served"),
              static_cast<uint64_t>(kClients));
    EXPECT_EQ(service.metrics().counterValue("requests.coalesced"),
              static_cast<uint64_t>(kClients - 1));
    EXPECT_EQ(service.cacheStats().misses, 1u);
}

TEST(TuningService, BatchSearchesInBatchDuplicatesOnce)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    TuningService service(sim, fastOptions());

    std::vector<TuneRequest> batch;
    batch.push_back(request("TS", 40));
    batch.push_back(request("TS", 40, 18));
    batch.push_back(request("TS", 40));
    batch.push_back(request("TS", 40));
    auto futures = submitAll(service, batch);
    ASSERT_EQ(futures.size(), 4u);
    std::vector<TuneResponse> responses;
    for (auto &f : futures)
        responses.push_back(f.get());

    // Two distinct requests, two searches; the duplicates share the
    // first occurrence's answer.
    EXPECT_EQ(service.metrics().histogram("phase.search").count(), 2u);
    EXPECT_FALSE(responses[0].coalesced);
    EXPECT_FALSE(responses[1].coalesced);
    for (const size_t i : {2, 3}) {
        EXPECT_TRUE(responses[i].coalesced) << i;
        expectSameAnswer(responses[i], responses[0]);
    }
    EXPECT_NE(responses[1].best.values(), responses[0].best.values());
    EXPECT_EQ(service.metrics().counterValue("requests.coalesced"), 2u);
    EXPECT_EQ(service.metrics().counterValue("requests.served"), 4u);
}

TEST(TuningService, BatchItemJoinsAnInFlightSubmit)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    ServiceOptions opt = fastOptions(1);
    // Hold the first request in flight: its first build attempt fails
    // and it backs off long enough for the batch to arrive.
    opt.faults.failFirstModelBuilds = 1;
    opt.retryBackoffInitialSec = 0.5;
    opt.retryBackoffMaxSec = 0.5;
    TuningService service(sim, opt);

    auto first = service.submit(request("TS", 40));
    while (service.metrics().counterValue("model_build.attempts") == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::vector<TuneRequest> batch;
    batch.push_back(request("TS", 40));
    batch.push_back(request("WC", 80));
    auto futures = submitAll(service, batch);
    ASSERT_EQ(futures.size(), 2u);

    const TuneResponse original = first.get();
    const TuneResponse joined = futures[0].get();
    EXPECT_FALSE(futures[1].get().coalesced);
    EXPECT_FALSE(original.coalesced);
    EXPECT_EQ(original.buildRetries, 1);
    // The batch item joined the in-flight request instead of searching
    // again: two distinct requests, two searches.
    EXPECT_TRUE(joined.coalesced);
    expectSameAnswer(joined, original);
    EXPECT_EQ(service.metrics().histogram("phase.search").count(), 2u);
    EXPECT_EQ(service.metrics().counterValue("requests.coalesced"), 1u);
}

TEST(TuningService, ResponsesAreDeterministicAcrossThreadCounts)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    TuningService serial(sim, fastOptions(1));
    TuningService parallel(sim, fastOptions(3));

    const auto a = serial.submit(request("KM", 200, 5)).get();
    const auto b = parallel.submit(request("KM", 200, 5)).get();
    EXPECT_EQ(a.best.values(), b.best.values());
    EXPECT_DOUBLE_EQ(a.predictedTimeSec, b.predictedTimeSec);
    EXPECT_DOUBLE_EQ(a.modelErrorPct, b.modelErrorPct);
}

TEST(TuningService, UnknownWorkloadFaultsTheFuture)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    TuningService service(sim, fastOptions());
    auto future = service.submit(request("NOPE", 10));
    EXPECT_THROW(future.get(), std::runtime_error);
    EXPECT_EQ(service.metrics().counterValue("requests.failed"), 1u);
}

TEST(TuningService, ShutdownDrainsAcceptedRequests)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    TuningService service(sim, fastOptions(1));

    // Three distinct requests: one runs, two sit in the queue.
    auto a = service.submit(request("TS", 40));
    auto b = service.submit(request("WC", 80));
    auto c = service.submit(request("KM", 200));
    service.shutdown();

    EXPECT_EQ(a.get().workload, "TS");
    EXPECT_EQ(b.get().workload, "WC");
    EXPECT_EQ(c.get().workload, "KM");
    EXPECT_THROW(service.submit(request("TS", 40)),
                 std::runtime_error);
}

TEST(TuningService, StatusReportShowsTraffic)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    TuningService service(sim, fastOptions());
    service.submit(request("TS", 40)).get();
    service.submit(request("TS", 40)).get();

    const std::string report = service.statusReport();
    EXPECT_NE(report.find("requests.served"), std::string::npos);
    EXPECT_NE(report.find("latency.request"), std::string::npos);
    EXPECT_NE(report.find("cache.hit_rate"), std::string::npos);
    EXPECT_NE(report.find("models.built"), std::string::npos);
}

} // namespace
} // namespace dac::service
