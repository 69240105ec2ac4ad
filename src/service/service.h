/**
 * @file
 * The concurrent tuning service: DAC's collect -> model -> search
 * pipeline behind an asynchronous submitBatch() API.
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

#include <array>
#include <atomic>
#include <chrono>
#include <exception>
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
    /** Bound on queued-but-not-running pool tasks (one per
     *  submitBatch call that opens an entry); past it, new requests
     *  are answered "queue-saturated". */
    size_t queueCapacity = 256;
    /** Trained models kept resident. */
    size_t modelCacheCapacity = 16;
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
    /** First retry backoff, seconds; it doubles per retry. */
    double retryBackoffInitialSec = 0.05;
    /** Backoff ceiling, seconds; also clipped to any deadline left. */
    double retryBackoffMaxSec = 1.0;

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
     * The one submission path (submit() is a batch of one). Each
     * request joins the pending entry of an identical request already
     * in flight, from this call or an earlier one, or opens a new
     * entry; identical requests thus share one computation, and every
     * waiter after the first gets the answer with `coalesced` set.
     * The entries a call opens run in batch order as one pool task,
     * so a pipelined burst costs one queue slot and back-to-back keys
     * hit the warm model; a pool worker calls their replies. When the
     * queue is full, those entries are answered inline, on the
     * calling thread, with the expert configuration
     * ("queue-saturated") instead of blocking the caller. A request
     * that faults (e.g. unknown workload) gets the error in its
     * replies. After shutdown() it throws and calls no reply.
     */
    void submitBatch(std::vector<TuneJob> batch) override;

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
     * totals and hit rate) so a renderPrometheus()/renderJson()
     * snapshot is current. The stats endpoint calls this on every
     * query; statusReport() does too.
     */
    void refreshGauges();

    /**
     * Persist every cached model to ServiceOptions::snapshotDir now
     * (no-op counts when persistence is disabled). Thread-safe; entry
     * pointers are captured under the cache lock and written outside
     * it, so in-flight requests keep serving.
     */
    ModelCache::SnapshotIo snapshotNow();

  private:
    /** Requests waiting on one in-flight computation. */
    struct Pending
    {
        std::vector<TuneReply> waiters;
        std::chrono::steady_clock::time_point submitted;
    };

    /** How a pending entry closed; picks the counter its waiters
     *  land in. */
    enum class Outcome { Served, Failed, Rejected };

    /** Runs on a pool worker: the full pipeline for one request.
     *  `submitted` is when the request entered the queue (queue-wait
     *  phase = pickup minus submitted). */
    TuneResponse process(const TuneRequest &request,
                         std::chrono::steady_clock::time_point submitted);
    /** Close `key`'s pending entry: account for every waiter first (a
     *  waiter may read the counters the instant it is answered), then
     *  reply to each with `answer` (`coalesced` after the first) or
     *  with `error`. The only place an entry closes. */
    void close(const std::string &key, const TuneResponse &answer,
               std::exception_ptr error, Outcome outcome);
    /** Record one settled phase in all three places: `phases`, its
     *  phase.<phaseName()> histogram and, except for decode (which
     *  the transport records on its own thread), its flight record. */
    void settle(std::vector<PhaseTiming> &phases, uint32_t wire_id,
                Phase phase, double sec);
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
    /** Expert-configuration fallback answer to `request`, labeled
     *  degraded and carrying the `phases` measured before it stopped. */
    TuneResponse degradedResponse(const TuneRequest &request,
                                  const char *reason, int build_retries,
                                  std::vector<PhaseTiming> phases);
    /** Label `response` degraded for `reason`: counts it, drops a
     *  flight-recorder event (tagged `wire_id`) and asks for a
     *  rate-limited flight dump. */
    void markDegraded(TuneResponse &response, const char *reason,
                      uint32_t wire_id);

    const sparksim::SparkSimulator *sim;
    ServiceOptions options;
    obs::MetricsRegistry registry;
    // Histograms a request records into, resolved once at
    // construction so serving never looks one up by name.
    std::array<obs::Histogram *, kPhaseCount> phaseHist{};
    obs::Histogram &requestLatency;
    obs::Histogram &buildLatency;
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
