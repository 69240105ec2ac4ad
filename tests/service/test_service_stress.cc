/**
 * @file
 * Stress and chaos tests for the tuning service's failure handling:
 * deadlines, model-build retries, queue backpressure, and shutdown
 * draining requests that are mid-retry or mid-deadline. Run under
 * ASan/TSan in CI — the interesting failures here are hangs and leaks.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <future>
#include <thread>
#include <vector>

#include "conf/expert.h"
#include "service/service.h"

namespace dac::service {
namespace {

ServiceOptions
stressOptions(size_t threads = 2)
{
    ServiceOptions opt;
    opt.threads = threads;
    opt.modelCacheCapacity = 4;
    opt.tuning.collect.datasetCount = 4;
    opt.tuning.collect.runsPerDataset = 12;
    opt.tuning.hm.firstOrder.maxTrees = 60;
    opt.tuning.hm.firstOrder.convergencePatience = 30;
    opt.tuning.ga.maxGenerations = 25;
    // Keep injected-retry turnaround fast.
    opt.retryBackoffInitialSec = 0.01;
    opt.retryBackoffMaxSec = 0.05;
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

TEST(TuningServiceStress, TransientBuildFailureIsRetriedToSuccess)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    ServiceOptions opt = stressOptions();
    opt.faults.failFirstModelBuilds = 1;
    TuningService service(sim, opt);

    const auto response = service.submit(request("TS", 40)).get();
    EXPECT_FALSE(response.degraded);
    EXPECT_EQ(response.buildRetries, 1);
    EXPECT_EQ(response.best.size(), 41u);
    EXPECT_EQ(service.metrics().counterValue("model_build.retries"), 1u);
    EXPECT_EQ(service.metrics().counterValue(
                  "model_build.transient_failures"),
              1u);
    EXPECT_EQ(service.metrics().counterValue("requests.degraded"), 0u);
}

TEST(TuningServiceStress, ExhaustedRetriesDegradeToExpertConfig)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    ServiceOptions opt = stressOptions();
    opt.faults.failFirstModelBuilds = 100; // never succeeds
    opt.modelBuildMaxRetries = 2;
    TuningService service(sim, opt);

    const auto response = service.submit(request("TS", 40)).get();
    EXPECT_TRUE(response.degraded);
    EXPECT_EQ(response.degradedReason, "model-failure");
    EXPECT_EQ(response.buildRetries, 2);
    const auto expert =
        conf::expertSparkConfig(cluster::ClusterSpec::paperTestbed());
    EXPECT_EQ(response.best.values(), expert.values());
    EXPECT_EQ(service.metrics().counterValue("requests.degraded"), 1u);
    // The request was served (degraded), not failed.
    EXPECT_EQ(service.metrics().counterValue("requests.served"), 1u);
    EXPECT_EQ(service.metrics().counterValue("requests.failed"), 0u);
}

TEST(TuningServiceStress, TinyDeadlineDegradesWithinIt)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    TuningService service(sim, stressOptions());

    TuneRequest req = request("TS", 40);
    req.deadlineSec = 0.001; // expires long before collection ends
    const auto start = std::chrono::steady_clock::now();
    const auto response = service.submit(std::move(req)).get();
    const double took = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();

    EXPECT_TRUE(response.degraded);
    EXPECT_EQ(response.degradedReason, "deadline");
    const auto expert =
        conf::expertSparkConfig(cluster::ClusterSpec::paperTestbed());
    EXPECT_EQ(response.best.values(), expert.values());
    EXPECT_GE(service.metrics().counterValue("deadline.expired"), 1u);
    // "Within the deadline" up to one cooperative poll interval: the
    // fallback must arrive orders of magnitude before a full tune.
    EXPECT_LT(took, 5.0);
}

std::vector<Phase>
phaseKinds(const TuneResponse &response)
{
    std::vector<Phase> kinds;
    for (const PhaseTiming &timing : response.phases)
        kinds.push_back(timing.phase);
    return kinds;
}

TEST(TuningServiceStress, DegradedAnswersKeepTheirPhases)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());

    // model-failure: decode (as a transport stamps it) and the queue
    // wait were measured before the build gave up.
    ServiceOptions failing = stressOptions();
    failing.faults.failFirstModelBuilds = 100;
    failing.modelBuildMaxRetries = 0;
    TuningService failService(sim, failing);
    TuneRequest stamped = request("TS", 40);
    stamped.decodeSec = 0.25;
    const auto failed = failService.submit(stamped).get();
    EXPECT_EQ(failed.degradedReason, "model-failure");
    EXPECT_EQ(phaseKinds(failed),
              (std::vector<Phase>{Phase::Decode, Phase::Queue}));
    EXPECT_EQ(failed.phaseSec(Phase::Decode), 0.25);

    // deadline, twice: expired before the build could start (only the
    // queue wait measured), and expired after a warm cache lookup but
    // before the search.
    TuningService service(sim, stressOptions());
    TuneRequest cold = request("WC", 80);
    cold.deadlineSec = 1e-9;
    const auto expiredCold = service.submit(cold).get();
    EXPECT_EQ(expiredCold.degradedReason, "deadline");
    EXPECT_EQ(phaseKinds(expiredCold), std::vector<Phase>{Phase::Queue});

    ASSERT_FALSE(service.submit(request("TS", 40)).get().degraded);
    TuneRequest warm = request("TS", 40, 18);
    warm.deadlineSec = 1e-9;
    const auto expiredWarm = service.submit(warm).get();
    EXPECT_EQ(expiredWarm.degradedReason, "deadline");
    EXPECT_EQ(phaseKinds(expiredWarm),
              (std::vector<Phase>{Phase::Queue, Phase::CacheLookup}));
}

TEST(TuningServiceStress, NegativeDeadlineDisablesTheDefault)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    ServiceOptions opt = stressOptions();
    opt.defaultDeadlineSec = 0.001; // would expire every request...
    TuningService service(sim, opt);

    TuneRequest req = request("TS", 40);
    req.deadlineSec = -1.0; // ...but this request opts out
    const auto response = service.submit(std::move(req)).get();
    EXPECT_FALSE(response.degraded);
    EXPECT_GT(response.predictedTimeSec, 0.0);
}

TEST(TuningServiceStress, SaturatedQueueRejectsWithDegradedResponse)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    ServiceOptions opt = stressOptions(1);
    opt.queueCapacity = 1;
    opt.parallelWithinRequest = false;
    TuningService service(sim, opt);

    // A occupies the single worker; wait until it is actually running
    // (its model build has started) so the queue state is known.
    auto a = service.submit(request("TS", 40));
    while (service.metrics().counterValue("model_build.attempts") == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // B fills the one queue slot; C must be rejected, not blocked.
    auto b = service.submit(request("WC", 80));
    auto c = service.submit(request("KM", 200));

    const auto rejected = c.get(); // resolves inline, before A/B finish
    EXPECT_TRUE(rejected.degraded);
    EXPECT_EQ(rejected.degradedReason, "queue-saturated");
    const auto expert =
        conf::expertSparkConfig(cluster::ClusterSpec::paperTestbed());
    EXPECT_EQ(rejected.best.values(), expert.values());
    EXPECT_EQ(service.metrics().counterValue("requests.rejected"), 1u);

    EXPECT_FALSE(a.get().degraded);
    EXPECT_FALSE(b.get().degraded);
}

TEST(TuningServiceStress, InRequestParallelismNeverSaturatesTheQueue)
{
    // Two searches in flight keep both workers busy while each runs a
    // parallelFor per generation step. Loops must not leave helpers in
    // the queue, so requests kept below queueCapacity are all served.
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    ServiceOptions opt = stressOptions(2);
    opt.queueCapacity = 4;
    opt.parallelWithinRequest = true;
    TuningService service(sim, opt);
    // Build the model once; every later request is a cache hit.
    ASSERT_FALSE(service.submit(request("TS", 40)).get().degraded);

    std::deque<std::future<TuneResponse>> inFlight;
    size_t saturated = 0;
    auto collect = [&]() {
        saturated +=
            inFlight.front().get().degradedReason == "queue-saturated";
        inFlight.pop_front();
    };
    for (uint64_t seed = 100; seed < 140; ++seed) {
        inFlight.push_back(service.submit(request("TS", 40, seed)));
        if (inFlight.size() == 2)
            collect();
    }
    while (!inFlight.empty())
        collect();
    EXPECT_EQ(saturated, 0u);
    EXPECT_EQ(service.metrics().counterValue("requests.rejected"), 0u);
}

TEST(TuningServiceStress, ShutdownDrainsRequestsMidRetry)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    ServiceOptions opt = stressOptions(2);
    opt.faults.failFirstModelBuilds = 1000; // every build attempt dies
    opt.modelBuildMaxRetries = 2;
    TuningService service(sim, opt);

    std::vector<std::future<TuneResponse>> futures;
    futures.push_back(service.submit(request("TS", 40)));
    futures.push_back(service.submit(request("WC", 80)));
    futures.push_back(service.submit(request("KM", 200)));
    futures.push_back(service.submit(request("TS", 400)));

    // Workers are now sleeping in retry backoff; shutdown must still
    // drain every accepted request without hanging.
    service.shutdown();
    for (auto &f : futures) {
        const auto r = f.get();
        EXPECT_TRUE(r.degraded);
        EXPECT_EQ(r.degradedReason, "model-failure");
    }
}

TEST(TuningServiceStress, ShutdownDrainsRequestsMidDeadline)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    ServiceOptions opt = stressOptions(2);
    opt.defaultDeadlineSec = 0.001;
    TuningService service(sim, opt);

    std::vector<std::future<TuneResponse>> futures;
    for (int i = 0; i < 6; ++i)
        futures.push_back(
            service.submit(request("TS", 30.0 + 10.0 * i,
                                   static_cast<uint64_t>(i))));
    service.shutdown();
    for (auto &f : futures) {
        const auto r = f.get();
        EXPECT_TRUE(r.degraded);
        EXPECT_EQ(r.degradedReason, "deadline");
    }
    EXPECT_GE(service.metrics().counterValue("requests.degraded"), 6u);
}

TEST(TuningServiceStress, ChurnWithMixedFaultsResolvesEveryFuture)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    ServiceOptions opt = stressOptions(3);
    opt.faults.modelBuildFailureProb = 0.5;
    opt.faults.seed = 20260806;
    opt.modelBuildMaxRetries = 1;
    TuningService service(sim, opt);

    const char *workloads[] = {"TS", "WC", "KM", "PR"};
    std::vector<std::future<TuneResponse>> futures;
    for (int i = 0; i < 12; ++i) {
        TuneRequest req = request(workloads[i % 4], 40.0 + i,
                                  static_cast<uint64_t>(i));
        if (i % 3 == 0)
            req.deadlineSec = 0.001; // a third race their deadline
        futures.push_back(service.submit(std::move(req)));
    }
    // Tear down while most are in flight; every future must resolve
    // to either a real or a cleanly degraded response.
    service.shutdown();
    size_t resolved = 0;
    for (auto &f : futures) {
        const auto r = f.get();
        EXPECT_EQ(r.best.size(), 41u);
        if (r.degraded) {
            EXPECT_FALSE(r.degradedReason.empty());
        }
        ++resolved;
    }
    EXPECT_EQ(resolved, futures.size());
}

} // namespace
} // namespace dac::service
