/** @file Tests for the metrics registry (obs/metrics.h). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace dac::obs {
namespace {

TEST(Metrics, CountersAccumulate)
{
    MetricsRegistry registry;
    registry.counter("requests").increment();
    registry.counter("requests").increment(4);
    EXPECT_EQ(registry.counterValue("requests"), 5u);
    EXPECT_EQ(registry.counterValue("never-touched"), 0u);
}

TEST(Metrics, CountersAreThreadSafe)
{
    MetricsRegistry registry;
    Counter &counter = registry.counter("shared");
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&counter]() {
            for (int i = 0; i < 10000; ++i)
                counter.increment();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(), 40000u);
}

TEST(Metrics, HistogramTracksCountMeanMax)
{
    Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.percentile(50), 0.0);

    hist.observe(0.010);
    hist.observe(0.020);
    hist.observe(0.030);
    EXPECT_EQ(hist.count(), 3u);
    EXPECT_NEAR(hist.meanValue(), 0.020, 1e-12);
    EXPECT_DOUBLE_EQ(hist.maxValue(), 0.030);
}

TEST(Metrics, HistogramPercentilesAreOrderedAndBracketed)
{
    Histogram hist;
    // 100 observations spread over two decades.
    for (int i = 1; i <= 100; ++i)
        hist.observe(0.001 * i);

    const double p50 = hist.percentile(50);
    const double p95 = hist.percentile(95);
    const double p99 = hist.percentile(99);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    // Log-bucketed estimates: within one 2x bucket of the truth.
    EXPECT_GT(p50, 0.050 / 2);
    EXPECT_LT(p50, 0.050 * 2);
    EXPECT_GT(p99, 0.099 / 2);
    EXPECT_LE(p99, hist.maxValue() * 2);
}

TEST(Metrics, HistogramMaxSurvivesConcurrentObservers)
{
    // Stress the lock-free CAS maximum: racing observers with
    // interleaved magnitudes must never let a smaller late write
    // clobber a larger earlier one.
    Histogram hist;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 5000;
    double expectedMax = 0.0;
    std::vector<std::vector<double>> schedules(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        for (int i = 0; i < kPerThread; ++i) {
            // Deterministic pseudo-random mix spanning microseconds
            // to minutes; every thread peaks at a different point.
            const double value =
                1e-6 * std::pow(1.5, (i * 7 + t * 13) % 40);
            schedules[t].push_back(value);
            expectedMax = std::max(expectedMax, value);
        }
    }

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&hist, &schedules, t]() {
            for (const double value : schedules[t])
                hist.observe(value);
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(hist.count(),
              static_cast<uint64_t>(kThreads) * kPerThread);
    EXPECT_DOUBLE_EQ(hist.maxValue(), expectedMax);
}

TEST(Metrics, BucketBoundsQuarterOctaveFromOneMicrosecond)
{
    // Log-linear layout: each octave from 1us is split into 4 linear
    // sub-buckets, so the first bounds are 1.25, 1.5, 1.75, 2.0us and
    // the octave-1 bounds are 2.5, 3.0, 3.5, 4.0us.
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(0), 1.25e-6);
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(1), 1.5e-6);
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(3), 2e-6);
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(7), 4e-6);
    EXPECT_TRUE(std::isinf(
        Histogram::bucketUpperBound(Histogram::kBuckets - 1)));

    Histogram hist;
    hist.observe(3e-6);  // [3us, 3.5us) -> bucket 6
    hist.observe(0.003); // [2.56ms, 3.072ms) -> bucket 45
    EXPECT_EQ(hist.bucketCount(6), 1u);
    EXPECT_EQ(hist.bucketCount(45), 1u);
    EXPECT_DOUBLE_EQ(Histogram::bucketUpperBound(45), 0.003072);
    EXPECT_EQ(hist.bucketCount(0), 0u);
}

TEST(Metrics, PercentileErrorBoundedBySubBucketWidth)
{
    // The sub-bucket midpoint estimate is off by at most half a
    // sub-bucket, i.e. ~12.5% of the value — the point of the
    // log-linear refinement (pure power-of-two buckets allowed ~2x).
    Histogram hist;
    for (int i = 0; i < 1000; ++i)
        hist.observe(0.004); // all mass in one sub-bucket
    const double p99 = hist.percentile(99);
    EXPECT_NEAR(p99, 0.004, 0.004 * 0.14);

    // A spread distribution keeps every quantile within the same
    // relative error of its exact counterpart.
    Histogram spread;
    for (int i = 1; i <= 1000; ++i)
        spread.observe(1e-3 * i);
    const double exactP99 = 0.990;
    EXPECT_NEAR(spread.percentile(99), exactP99, exactP99 * 0.14);
    const double exactP50 = 0.500;
    EXPECT_NEAR(spread.percentile(50), exactP50, exactP50 * 0.14);
}

TEST(Metrics, ReportRendersEveryMetric)
{
    MetricsRegistry registry;
    registry.counter("requests.served").increment(3);
    registry.histogram("latency.request").observe(0.5);
    registry.setGauge("pool.queue_depth", 7);

    const std::string report = registry.report();
    EXPECT_NE(report.find("requests.served"), std::string::npos);
    EXPECT_NE(report.find("latency.request"), std::string::npos);
    EXPECT_NE(report.find("pool.queue_depth"), std::string::npos);
    EXPECT_NE(report.find("p95"), std::string::npos);
    EXPECT_NE(report.find("3"), std::string::npos);
}

} // namespace
} // namespace dac::obs
