/**
 * @file
 * Lock-free operational metrics: named atomic counters and log-bucketed
 * latency histograms with percentile estimates, dumpable as an aligned
 * ASCII table (support/table) or as Prometheus text exposition.
 *
 * Lives in obs (not the service runtime) so every layer of the
 * pipeline (simulator, collector, modeler, searcher) can record into
 * the process-wide globalMetrics() registry.
 *
 * Counter and Histogram references handed out by a registry stay valid
 * for the registry's lifetime and may be updated concurrently from any
 * thread; only the first lookup of a new name takes a lock, so hot
 * paths should cache the reference (typically in a function-local
 * static).
 */

#ifndef DAC_OBS_METRICS_H
#define DAC_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "support/table.h"

namespace dac::obs {

/**
 * Monotonic event counter.
 */
class Counter
{
  public:
    // Relaxed throughout: counters are statistics, not synchronization;
    // readers tolerate momentarily stale totals.
    void increment(uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    [[nodiscard]] uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<uint64_t> value_{0};
};

/**
 * Histogram over positive values (latencies in seconds) with
 * log-linear buckets from 1 microsecond up: each power-of-two octave
 * splits into kSubBuckets equal-width sub-buckets, so bucket bounds
 * run 1, 1.25, 1.5, 1.75, 2, 2.5, ... microseconds. The top bucket
 * absorbs everything past ~200 days.
 *
 * Percentiles are estimated at the arithmetic midpoint of the
 * sub-bucket containing the requested rank. Pure power-of-two buckets
 * carried up to ~41% error at the octave edge; four sub-buckets per
 * octave cap the error at half a sub-bucket width (~12.5% of the
 * value), which the accuracy test in tests/service/test_metrics.cc
 * pins.
 */
class Histogram
{
  public:
    /** Fold one observation in (values <= 0 clamp to the first
     *  bucket). */
    void observe(double value);

    [[nodiscard]] uint64_t count() const
    {
        return count_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double total() const
    {
        return sum_.load(std::memory_order_relaxed);
    }
    /** Arithmetic mean of the observations (0 when empty). */
    [[nodiscard]] double meanValue() const;
    /** Largest observation folded in so far (0 when empty). */
    [[nodiscard]] double maxValue() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    /** Estimated percentile, p in [0, 100] (0 when empty). */
    [[nodiscard]] double percentile(double p) const;

    /** Power-of-two octaves covered, starting at 1us. */
    static constexpr size_t kOctaves = 45;
    /** Equal-width sub-buckets per octave (the log-linear split). */
    static constexpr size_t kSubBuckets = 4;
    /** Total bucket count. */
    static constexpr size_t kBuckets = kOctaves * kSubBuckets;

    /** Observations landed in bucket i (non-cumulative). */
    [[nodiscard]] uint64_t bucketCount(size_t i) const
    {
        return buckets[i].load(std::memory_order_relaxed);
    }

    /**
     * Exclusive upper bound of bucket i in seconds. Octave k = i /
     * kSubBuckets spans [1us * 2^k, 1us * 2^(k+1)); sub-bucket j = i %
     * kSubBuckets ends at 1us * 2^k * (1 + (j+1)/kSubBuckets).
     * +infinity for the last bucket.
     */
    [[nodiscard]] static double bucketUpperBound(size_t i);

    /** Inclusive lower bound of bucket i in seconds (1us for bucket 0,
     *  which also absorbs everything below it). */
    [[nodiscard]] static double bucketLowerBound(size_t i);

  private:
    std::atomic<uint64_t> buckets[kBuckets] = {};
    std::atomic<uint64_t> count_{0};
    std::atomic<double> sum_{0.0};
    std::atomic<double> max_{0.0};
};

/**
 * Named counters and histograms plus point-in-time gauges, rendered as
 * one ASCII table for logs or as Prometheus text exposition for the
 * service's metrics endpoint.
 */
class MetricsRegistry
{
  public:
    /** The counter with this name, created on first use. */
    Counter &counter(const std::string &name);

    /** The histogram with this name, created on first use. */
    Histogram &histogram(const std::string &name);

    /** Set a point-in-time value (queue depth, cache size, ...). */
    void setGauge(const std::string &name, double value);

    /** Current value of a counter (0 if never touched). */
    [[nodiscard]] uint64_t counterValue(const std::string &name) const;

    /**
     * Render everything as an aligned table: counters as single
     * values, histograms with count/mean/p50/p95/p99/max, gauges as
     * instantaneous values.
     */
    [[nodiscard]] TextTable toTable() const;

    /** toTable() rendered to a string. */
    [[nodiscard]] std::string report() const;

    /**
     * Prometheus text exposition (version 0.0.4): `# HELP`/`# TYPE`
     * comments, counters with a `_total` suffix, gauges, and
     * histograms as cumulative `_bucket{le="..."}` series (trailing
     * empty buckets are folded into `+Inf`) plus `_sum`/`_count`.
     * Metric names are prefixed and sanitized ("latency.request" ->
     * "dac_latency_request_seconds").
     */
    [[nodiscard]] std::string
    renderPrometheus(const std::string &prefix = "dac") const;

    /**
     * JSON snapshot for machine consumers (the Stats wire frame,
     * tools/dac_top): counters as integers, gauges as numbers,
     * histograms as {count, mean, p50, p95, p99, max} summaries.
     */
    [[nodiscard]] std::string renderJson() const;

  private:
    mutable std::mutex mutex;
    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Histogram>> histograms;
    std::map<std::string, double> gauges;
};

/**
 * The process-wide registry the library layers record into (simulator
 * runs, collection campaigns, model builds, searches). CLI tools dump
 * it via dac_cli --metrics; services keep their own registries for
 * per-instance accounting.
 */
MetricsRegistry &globalMetrics();

} // namespace dac::obs

#endif // DAC_OBS_METRICS_H
