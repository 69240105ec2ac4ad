/**
 * @file
 * The concurrent tuning service: DAC's collect -> model -> search
 * pipeline behind an asynchronous submit() API.
 *
 * A TuningService owns a ThreadPool, a ModelCache, and a
 * MetricsRegistry. Each submitted request runs on the pool; the
 * expensive collect+model phase is shared through the cache (and
 * band-local, see model_cache.h), concurrent identical requests are
 * coalesced into one in-flight computation, and shutdown() drains
 * everything already accepted before returning. Responses are
 * deterministic for a fixed request seed regardless of thread count or
 * arrival order: all randomness is planned serially per request (see
 * executor.h).
 */

#ifndef DAC_SERVICE_SERVICE_H
#define DAC_SERVICE_SERVICE_H

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dac/tuner.h"
#include "obs/metrics.h"
#include "service/backend.h"
#include "service/model_cache.h"
#include "service/request.h"
#include "service/thread_pool.h"
#include "sparksim/simulator.h"
#include "support/cancel.h"

namespace dac::service {

/** Service sizing and tuning policy. */
struct ServiceOptions
{
    /** Worker threads (0 = one per hardware thread). */
    size_t threads = 4;
    /** Bound on queued-but-not-running requests. */
    size_t queueCapacity = 256;
    /** Trained models kept resident. */
    size_t modelCacheCapacity = 16;
    /**
     * Independently locked model-cache shards (model_cache.h). More
     * shards let hot workloads in different shards hit the cache
     * without contending on one mutex; 1 reproduces the historical
     * single-lock cache.
     */
    size_t modelCacheShards = 8;
    /** Collection/model/GA settings applied to every request. */
    core::AutoTuneOptions tuning;
    /**
     * Spread one request's collection runs and GA fitness evaluations
     * across the pool. Results are bit-identical either way; parallel
     * collection is what makes a single cold request faster.
     */
    bool parallelWithinRequest = true;

    /**
     * Wall deadline applied to requests that leave
     * TuneRequest::deadlineSec at 0, seconds (<= 0 = no default
     * deadline). Expiry is observed cooperatively — between HM rounds
     * and GA generations — and degrades the response instead of
     * failing it; see DESIGN.md §10 for the degradation ladder.
     */
    double defaultDeadlineSec = 0.0;
    /** Transient model-build failures retried (with backoff) before
     *  the request degrades to the expert configuration. */
    int modelBuildMaxRetries = 2;
    /** First retry backoff, seconds. */
    double retryBackoffInitialSec = 0.05;
    /** Backoff growth per retry (exponential). */
    double retryBackoffMultiplier = 2.0;
    /** Backoff ceiling, seconds; also clipped to any deadline left. */
    double retryBackoffMaxSec = 1.0;
    /** Answer new requests with a degraded "queue-saturated" response
     *  instead of blocking the caller when the work queue is full. */
    bool rejectWhenSaturated = true;

    /**
     * Directory of model snapshots (persist/snapshot.h). Empty (the
     * default) disables persistence. When set: the cache is restored
     * from it at construction (stale-format files evicted), every
     * freshly built model is persisted right after its build, and
     * snapshotNow() persists the whole cache on demand (the server
     * example calls it on SIGTERM drain). Persistence is best-effort:
     * a full disk degrades warm restarts, never serving.
     */
    std::string snapshotDir;

    /**
     * Deterministic fault hook for chaos tests: injected transient
     * model-build failures that exercise the retry/degradation path
     * without touching the real pipeline. All zero (the default) means
     * no injection and zero overhead.
     */
    struct FaultInjection
    {
        /** Fail this many build attempts (counted service-wide, in
         *  attempt order) before letting builds succeed. */
        int failFirstModelBuilds = 0;
        /** Per-attempt failure probability, drawn from a seeded Rng
         *  keyed on the service-wide attempt index. */
        double modelBuildFailureProb = 0.0;
        uint64_t seed = 0;
    };
    FaultInjection faults;
};

/**
 * Long-lived, thread-safe tuning frontend over one simulator/cluster.
 *
 * Implements TuningBackend, so transports (the src/net wire server,
 * in-process examples, test stubs) stay agnostic of the pipeline.
 */
class TuningService final : public TuningBackend
{
  public:
    TuningService(const sparksim::SparkSimulator &sim,
                  ServiceOptions options = {});

    /** Drains in-flight work (shutdown()) before destruction. */
    ~TuningService() override;

    TuningService(const TuningService &) = delete;
    TuningService &operator=(const TuningService &) = delete;

    /**
     * Submit one tuning request; the future resolves when the request
     * has been served (or faulted, e.g. unknown workload). Identical
     * concurrent requests share a single computation.
     */
    std::future<TuneResponse> submit(TuneRequest request) override;

    /**
     * Submit requests that arrived together (one wire readiness
     * cycle): the whole batch runs as a single pool task, so a
     * pipelined burst costs one queue slot, repeated keys after the
     * first are shard-local cache hits on a warm model, and duplicate
     * requests inside the batch are answered once and shared
     * (coalesced flag set). Responses are identical to per-request
     * submit(); a saturated queue degrades every item to the expert
     * configuration ("queue-saturated"), like submit().
     */
    std::vector<std::future<TuneResponse>>
    submitBatch(std::vector<TuneRequest> batch) override;

    /**
     * Stop accepting requests, serve everything already submitted,
     * and join the workers. Idempotent.
     */
    void shutdown();

    /** Operational counters and latency histograms. */
    obs::MetricsRegistry &metrics() { return registry; }

    /** Model-cache accounting (hits, misses, evictions, ...). */
    ModelCache::Stats cacheStats() const { return cache.stats(); }

    /**
     * Point-in-time ASCII status table: request counters, latency
     * percentiles, cache hit rate, queue depth.
     */
    std::string statusReport();

    /**
     * Refresh the registry's point-in-time gauges (queue depth, cache
     * totals, per-shard hit rates) so a renderPrometheus()/renderJson()
     * snapshot is current. The stats endpoint calls this on every
     * query; statusReport() does too.
     */
    void refreshGauges();

    /** Shard fan-out of the model cache (stats endpoints iterate it). */
    [[nodiscard]] size_t cacheShardCount() const
    {
        return cache.shardCount();
    }

    /** Per-shard model-cache accounting. */
    [[nodiscard]] ModelCache::Stats cacheShardStats(size_t shard) const
    {
        return cache.shardStats(shard);
    }

    /**
     * Persist every cached model to ServiceOptions::snapshotDir now
     * (no-op counts when persistence is disabled). Thread-safe; entry
     * pointers are captured per shard and written outside the cache
     * locks, so in-flight requests keep serving.
     */
    ModelCache::SnapshotIo snapshotNow();

  private:
    /** Requests waiting on one in-flight computation. */
    struct Pending
    {
        std::vector<std::promise<TuneResponse>> waiters;
        std::chrono::steady_clock::time_point submitted;
    };

    /** Runs on a pool worker: the full pipeline for one request.
     *  `submitted` is when the request entered the queue (queue-wait
     *  phase = pickup minus submitted). */
    TuneResponse process(const TuneRequest &request,
                         std::chrono::steady_clock::time_point submitted);
    /** Build (collect + model) the cache entry for one request;
     *  `cancel` stops HM refinement between rounds on expiry. */
    std::shared_ptr<const CachedModel> buildModel(
        const workloads::Workload &workload, const ModelKey &key,
        const CancelToken &cancel);
    /** buildModel behind bounded retry with exponential backoff;
     *  `retries_out` counts the transient failures absorbed. */
    std::shared_ptr<const CachedModel> buildModelWithRetry(
        const workloads::Workload &workload, const ModelKey &key,
        const CancelToken &cancel, int &retries_out);
    /** Deterministic injected build fault (ServiceOptions::faults);
     *  also counts every build attempt in the metrics. */
    void maybeInjectBuildFault();
    /** Expert-configuration fallback answer, labeled degraded; also
     *  drops a flight-recorder event (tagged `wire_id`) and asks for a
     *  rate-limited flight dump. */
    TuneResponse degradedResponse(const std::string &workload,
                                  double native_size, std::string reason,
                                  int build_retries, uint32_t wire_id = 0);

    const sparksim::SparkSimulator *sim;
    ServiceOptions options;
    obs::MetricsRegistry registry;
    ModelCache cache;
    /** Service-wide model-build attempt index (fault hook keys its
     *  deterministic draws on this). */
    std::atomic<uint64_t> buildAttempts{0};
    ThreadPool pool; ///< declared after the fields its tasks touch

    std::mutex mutex;
    std::map<std::string, std::shared_ptr<Pending>> pending;
    bool accepting = true;
};

} // namespace dac::service

#endif // DAC_SERVICE_SERVICE_H
