#include "service/service.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "conf/constraints.h"
#include "conf/expert.h"
#include "dac/modeler.h"
#include "dac/searcher.h"
#include "obs/flight_recorder.h"
#include "obs/tracer.h"
#include "support/logging.h"
#include "workloads/registry.h"

namespace dac::service {

namespace {

/** A model-build failure worth retrying (today: injected faults). */
struct TransientModelError : std::runtime_error
{
    TransientModelError()
        : std::runtime_error("transient model-build failure")
    {
    }
};

/** The request's deadline fired inside the build path. */
struct DeadlineExpired : std::runtime_error
{
    DeadlineExpired() : std::runtime_error("request deadline expired") {}
};

/** Platform-stable string hash (std::hash is not portable). */
uint64_t
stableHash(const std::string &text)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const char c : text)
        h = splitmix64(h ^ static_cast<uint64_t>(
                               static_cast<unsigned char>(c)));
    return h;
}

double
elapsedSec(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/**
 * The m training sizes for one datasize band: geometrically spaced
 * across [0.8 * 2^band, 1.25 * 2^(band+1)], i.e. the band widened by
 * 25% on each side so the model extrapolates a little past the band
 * edges. The spacing ratio is at least 1.12, honoring Eq. 4's >= 10%
 * pairwise separation.
 */
std::vector<double>
bandTrainingSizes(int band, size_t m)
{
    DAC_ASSERT(m > 0, "need at least one training size");
    const double lo = 0.8 * std::ldexp(1.0, band);
    const double hi = 1.25 * std::ldexp(1.0, band + 1);
    if (m == 1)
        return {std::sqrt(lo * hi)};
    const double ratio =
        std::max(std::pow(hi / lo, 1.0 / static_cast<double>(m - 1)),
                 1.12);
    std::vector<double> sizes;
    sizes.reserve(m);
    double size = lo;
    for (size_t i = 0; i < m; ++i, size *= ratio)
        sizes.push_back(size);
    return sizes;
}

} // namespace

std::string
TuneRequest::cacheKey() const
{
    std::ostringstream oss;
    oss << workload << "|" << std::bit_cast<uint64_t>(nativeSize) << "|"
        << seed;
    return oss.str();
}

const char *
phaseName(Phase phase)
{
    switch (phase) {
    case Phase::Decode:
        return "decode";
    case Phase::Queue:
        return "queue";
    case Phase::CacheLookup:
        return "cache-lookup";
    case Phase::ModelBuild:
        return "model-build";
    case Phase::Search:
        return "search";
    case Phase::Serialize:
        return "serialize";
    }
    return "unknown";
}

double
TuneResponse::phaseSec(Phase phase) const
{
    for (const PhaseTiming &timing : phases) {
        if (timing.phase == phase)
            return timing.sec;
    }
    return 0.0;
}

TuningService::TuningService(const sparksim::SparkSimulator &sim,
                             ServiceOptions options)
    : sim(&sim), options(options),
      cache(options.modelCacheCapacity),
      pool(ThreadPool::Options{options.threads, options.queueCapacity})
{
    if (!this->options.snapshotDir.empty()) {
        const ModelCache::SnapshotIo io =
            cache.restoreFrom(this->options.snapshotDir);
        registry.counter("snapshot.restored")
            .increment(static_cast<uint64_t>(io.loaded));
        registry.counter("snapshot.stale_evicted")
            .increment(static_cast<uint64_t>(io.staleEvicted));
        registry.counter("snapshot.restore_failed")
            .increment(static_cast<uint64_t>(io.failed));
        if (io.loaded + io.staleEvicted + io.failed > 0) {
            inform("snapshot restore from " + this->options.snapshotDir +
                   ": " + std::to_string(io.loaded) + " loaded, " +
                   std::to_string(io.staleEvicted) + " stale evicted, " +
                   std::to_string(io.failed) + " failed");
        }
    }
}

TuningService::~TuningService()
{
    shutdown();
}

std::future<TuneResponse>
TuningService::submit(TuneRequest request)
{
    const std::string key = request.cacheKey();
    std::promise<TuneResponse> promise;
    std::future<TuneResponse> future = promise.get_future();
    bool first = false;
    std::chrono::steady_clock::time_point submittedAt;
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!accepting)
            fatalError("TuningService::submit after shutdown");
        auto &slot = pending[key];
        if (!slot) {
            slot = std::make_shared<Pending>();
            slot->submitted = std::chrono::steady_clock::now();
            first = true;
        }
        submittedAt = slot->submitted;
        slot->waiters.push_back(std::move(promise));
    }
    registry.counter("requests.submitted").increment();
    obs::FlightRecorder::record(request.wireId,
                                obs::FlightPhase::QueueEnter);
    if (!first) {
        registry.counter("requests.coalesced").increment();
        return future;
    }

    const std::string workload = request.workload;
    const double native_size = request.nativeSize;
    const uint32_t wire_id = request.wireId;
    auto work = [this, request = std::move(request), key,
                 submittedAt]() {
        TuneResponse response;
        std::exception_ptr error;
        try {
            response = process(request, submittedAt);
        } catch (...) {
            error = std::current_exception();
        }

        std::shared_ptr<Pending> entry;
        {
            std::lock_guard<std::mutex> lock(mutex);
            const auto it = pending.find(key);
            DAC_ASSERT(it != pending.end(), "lost a pending request");
            entry = it->second;
            pending.erase(it);
        }

        // Account before fulfilling any promise: a waiter may read the
        // counters the instant its future resolves.
        const double latency = elapsedSec(entry->submitted);
        const size_t waiters = entry->waiters.size();
        if (error) {
            registry.counter("requests.failed").increment(waiters);
        } else {
            for (size_t i = 0; i < waiters; ++i)
                registry.histogram("latency.request").observe(latency);
            registry.counter("requests.served").increment(waiters);
        }
        for (size_t i = 0; i < waiters; ++i) {
            if (error) {
                entry->waiters[i].set_exception(error);
                continue;
            }
            TuneResponse copy = response;
            copy.coalesced = i > 0;
            copy.latencySec = latency;
            entry->waiters[i].set_value(std::move(copy));
        }
    };

    bool posted = true;
    if (options.rejectWhenSaturated)
        posted = pool.tryPost(std::move(work));
    else
        // Configuration-gated: the serving stack runs with
        // rejectWhenSaturated=true and takes the tryPost branch; this
        // blocking post exists for batch/offline embedders that
        // prefer backpressure to errors.
        // NOLINTNEXTLINE(dac-blocking-in-loop): gated off serving paths
        pool.post(std::move(work));
    if (posted)
        return future;

    // Backpressure: the queue is full, so unwind the pending entry and
    // answer every waiter inline with the expert fallback rather than
    // blocking the caller or erroring (reject-with-reason).
    std::shared_ptr<Pending> entry;
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = pending.find(key);
        DAC_ASSERT(it != pending.end(), "lost a pending request");
        entry = it->second;
        pending.erase(it);
    }
    registry.counter("requests.rejected")
        .increment(entry->waiters.size());
    const TuneResponse rejected = degradedResponse(
        workload, native_size, "queue-saturated", 0, wire_id);
    const double latency = elapsedSec(entry->submitted);
    for (size_t i = 0; i < entry->waiters.size(); ++i) {
        TuneResponse copy = rejected;
        copy.coalesced = i > 0;
        copy.latencySec = latency;
        entry->waiters[i].set_value(std::move(copy));
    }
    return future;
}

std::vector<std::future<TuneResponse>>
TuningService::submitBatch(std::vector<TuneRequest> batch)
{
    std::vector<std::future<TuneResponse>> futures;
    futures.reserve(batch.size());
    if (batch.empty())
        return futures;
    if (batch.size() == 1) {
        // A singleton batch is just a request; let it join the
        // cross-request pending/coalescing machinery.
        futures.push_back(submit(std::move(batch.front())));
        return futures;
    }

    /** One drained readiness cycle's worth of requests. */
    struct BatchState
    {
        std::vector<TuneRequest> requests;
        std::vector<std::promise<TuneResponse>> promises;
        std::chrono::steady_clock::time_point submitted;
    };
    auto state = std::make_shared<BatchState>();
    state->requests = std::move(batch);
    state->promises.resize(state->requests.size());
    state->submitted = std::chrono::steady_clock::now();
    for (auto &promise : state->promises)
        futures.push_back(promise.get_future());
    const size_t n = state->requests.size();

    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!accepting)
            fatalError("TuningService::submitBatch after shutdown");
    }
    registry.counter("requests.submitted").increment(n);
    registry.counter("requests.batched").increment(n);
    registry.counter("batches.submitted").increment();
    if (obs::FlightRecorder::enabled()) {
        for (const TuneRequest &request : state->requests) {
            obs::FlightRecorder::record(request.wireId,
                                        obs::FlightPhase::QueueEnter);
        }
    }

    // The whole batch is one pool task: back-to-back items reuse the
    // warm model (the first miss builds it, the rest are hits),
    // and duplicate cache keys inside the batch are answered from the
    // first occurrence without re-searching.
    auto work = [this, state]() {
        std::map<std::string, size_t> firstByKey;
        std::vector<TuneResponse> responses(state->requests.size());
        for (size_t i = 0; i < state->requests.size(); ++i) {
            const TuneRequest &request = state->requests[i];
            try {
                const std::string key = request.cacheKey();
                const auto first = firstByKey.find(key);
                if (first == firstByKey.end()) {
                    responses[i] = process(request, state->submitted);
                    firstByKey.emplace(key, i);
                } else {
                    responses[i] = responses[first->second];
                    responses[i].coalesced = true;
                    registry.counter("requests.coalesced").increment();
                }
                const double latency = elapsedSec(state->submitted);
                responses[i].latencySec = latency;
                registry.histogram("latency.request").observe(latency);
                registry.counter("requests.served").increment();
                // Copy, not move: a later duplicate of this key copies
                // its answer from responses[i].
                state->promises[i].set_value(responses[i]);
            } catch (...) {
                registry.counter("requests.failed").increment();
                state->promises[i].set_exception(
                    std::current_exception());
            }
        }
    };

    bool posted = true;
    if (options.rejectWhenSaturated)
        posted = pool.tryPost(work);
    else
        // Configuration-gated, same contract as the single-request
        // path above; the serving stack never takes this branch.
        // NOLINTNEXTLINE(dac-blocking-in-loop): gated off serving paths
        pool.post(work);
    if (posted)
        return futures;

    // Backpressure: degrade the whole batch inline, same contract as
    // the single-request path.
    registry.counter("requests.rejected").increment(n);
    for (size_t i = 0; i < n; ++i) {
        TuneResponse rejected = degradedResponse(
            state->requests[i].workload, state->requests[i].nativeSize,
            "queue-saturated", 0, state->requests[i].wireId);
        rejected.latencySec = elapsedSec(state->submitted);
        state->promises[i].set_value(std::move(rejected));
    }
    return futures;
}

TuneResponse
TuningService::process(const TuneRequest &request,
                       std::chrono::steady_clock::time_point submitted)
{
    // Wire trace context: adopt the caller's sampling decision first
    // (a sampled-out request must record nothing at all), then its
    // span id as the parent, so the server-side span tree hangs under
    // the client's span in one stitched trace.
    obs::SampleScope sampleScope(request.sampled);
    obs::ParentScope parentScope(request.traceId != 0
                                     ? request.traceId
                                     : obs::currentSpanId());
    obs::ScopedSpan requestSpan("request");
    if (requestSpan.active()) {
        requestSpan.attr("workload", request.workload);
        requestSpan.attr("native_size", request.nativeSize);
        if (request.traceId != 0)
            requestSpan.attr("trace_id", request.traceId);
    }

    // Phase breakdown: accumulated in pipeline order as each phase
    // settles; every return path below carries whatever was measured
    // by then. The transport appends/patches serialize + write.
    std::vector<PhaseTiming> phases;
    if (request.decodeSec > 0.0) {
        phases.push_back({Phase::Decode, request.decodeSec});
        registry.histogram("phase.decode").observe(request.decodeSec);
    }
    const double queuedSec = elapsedSec(submitted);
    phases.push_back({Phase::Queue, queuedSec});
    registry.histogram("phase.queue").observe(queuedSec);
    obs::FlightRecorder::record(request.wireId,
                                obs::FlightPhase::QueueExit, queuedSec);

    const auto &workload =
        workloads::Registry::instance().byAbbrev(request.workload);
    if (request.nativeSize <= 0.0)
        fatalError("tune request with non-positive dataset size");

    // Deadline: the request's own value wins; 0 inherits the service
    // default; negative disables. Expiry is only observed at the
    // cooperative poll points (between HM rounds, GA generations, and
    // build retries), so a token that never fires changes nothing.
    CancelToken cancel;
    const double deadline_sec = request.deadlineSec == 0.0
        ? options.defaultDeadlineSec
        : request.deadlineSec;
    if (deadline_sec > 0.0)
        cancel.setDeadline(Deadline::after(deadline_sec));

    const ModelKey key{workload.abbrev(), sim->clusterSpec().signature(),
                       sizeBandOf(request.nativeSize)};

    bool builtHere = false;
    int build_retries = 0;
    double buildSec = 0.0;
    const auto lookupStart = std::chrono::steady_clock::now();
    std::shared_ptr<const CachedModel> cached;
    try {
        cached = cache.getOrBuild(key, [&]() {
            builtHere = true;
            const auto buildStart = std::chrono::steady_clock::now();
            auto entry = buildModelWithRetry(workload, key, cancel,
                                             build_retries);
            buildSec = elapsedSec(buildStart);
            return entry;
        });
    } catch (const DeadlineExpired &) {
        registry.counter("deadline.expired").increment();
        if (requestSpan.active())
            requestSpan.attr("degraded", "deadline");
        TuneResponse degraded =
            degradedResponse(workload.abbrev(), request.nativeSize,
                             "deadline", build_retries, request.wireId);
        degraded.phases = std::move(phases);
        return degraded;
    } catch (const TransientModelError &) {
        // Retries exhausted (also surfaces to every cache waiter that
        // coalesced onto the failed build — they degrade the same way).
        if (requestSpan.active())
            requestSpan.attr("degraded", "model-failure");
        TuneResponse degraded = degradedResponse(
            workload.abbrev(), request.nativeSize, "model-failure",
            build_retries, request.wireId);
        degraded.phases = std::move(phases);
        return degraded;
    }
    // The cache-lookup phase is the coordination cost alone: total
    // getOrBuild time minus any build this request ran itself.
    const double lookupSec =
        std::max(0.0, elapsedSec(lookupStart) - buildSec);
    phases.push_back({Phase::CacheLookup, lookupSec});
    registry.histogram("phase.cache-lookup").observe(lookupSec);
    obs::FlightRecorder::record(request.wireId,
                                obs::FlightPhase::CacheLookup, lookupSec);
    if (builtHere) {
        phases.push_back({Phase::ModelBuild, buildSec});
        registry.histogram("phase.model-build").observe(buildSec);
        obs::FlightRecorder::record(request.wireId,
                                    obs::FlightPhase::ModelBuild,
                                    buildSec);
    }
    if (requestSpan.active())
        requestSpan.attr("model_source", builtHere ? "built" : "cache_hit");
    if (obs::Tracer::enabled()) {
        obs::instant(builtHere ? "cache.miss" : "cache.hit",
                     {{"key", key.toString()}});
    }
    if (builtHere && !options.snapshotDir.empty()) {
        // Persist the freshly built model so a restarted process warms
        // up from disk instead of re-collecting. Milliseconds of disk
        // on a build that took whole simulated hours; best-effort.
        std::string persistError;
        if (ModelCache::writeSnapshot(options.snapshotDir, key, *cached,
                                      &persistError)) {
            registry.counter("snapshot.saved").increment();
        } else {
            registry.counter("snapshot.save_failed").increment();
            warn("snapshot of " + key.toString() + " failed: " +
                 persistError);
        }
    }

    // Deadline gone before the search starts: answer with the expert
    // configuration instead of starting work we cannot finish. (The
    // model, if built, stays cached for the next request.)
    if (cancel.cancelled()) {
        registry.counter("deadline.expired").increment();
        if (requestSpan.active())
            requestSpan.attr("degraded", "deadline");
        TuneResponse degraded =
            degradedResponse(workload.abbrev(), request.nativeSize,
                             "deadline", build_retries, request.wireId);
        degraded.phases = std::move(phases);
        return degraded;
    }

    // Search: GA against the cached model with the requested size
    // pinned, population seeded from the training set (Figure 6) —
    // the same protocol as ModelBasedTuner::configFor.
    obs::ScopedSpan searchPhase("phase.search");
    const auto searchStart = std::chrono::steady_clock::now();
    const auto &space = conf::ConfigSpace::spark();
    Rng rng(combineSeed(request.seed,
                        static_cast<uint64_t>(request.nativeSize)));
    std::vector<conf::Configuration> seeds;
    const size_t want =
        std::min<size_t>(options.tuning.ga.populationSize / 2,
                         cached->vectors.size());
    for (size_t i = 0; i < want; ++i) {
        const auto &pv = cached->vectors[rng.index(cached->vectors.size())];
        seeds.emplace_back(space, pv.config);
    }

    core::Searcher searcher(*cached->model, space, true);
    searcher.setCompiled(cached->compiled.get());
    ga::GaParams params = options.tuning.ga;
    params.seed = combineSeed(request.seed,
                              static_cast<uint64_t>(request.nativeSize *
                                                    1000));
    params.executor = options.parallelWithinRequest ? &pool : nullptr;
    params.cancel = &cancel;
    const double dsize = workload.bytesForSize(request.nativeSize);
    auto found = searcher.search(dsize, params, seeds);
    const double searchSec = elapsedSec(searchStart);
    registry.histogram("latency.search").observe(searchSec);
    phases.push_back({Phase::Search, searchSec});
    registry.histogram("phase.search").observe(searchSec);
    obs::FlightRecorder::record(request.wireId, obs::FlightPhase::Search,
                                searchSec);

    TuneResponse response;
    response.workload = workload.abbrev();
    response.nativeSize = request.nativeSize;
    response.best = std::move(found.best);
    response.predictedTimeSec = found.predictedTimeSec;
    response.modelErrorPct = cached->modelErrorPct;
    response.modelCacheHit = !builtHere;
    response.buildRetries = build_retries;
    response.warnings =
        conf::validateForCluster(response.best, sim->clusterSpec());
    response.phases = std::move(phases);
    if (found.ga.cancelled) {
        // Deadline fired mid-search: the GA's best-so-far is still a
        // real model-scored configuration, so return it — labeled.
        response.degraded = true;
        response.degradedReason = "search-truncated";
        registry.counter("deadline.expired").increment();
        registry.counter("search.truncated").increment();
        registry.counter("requests.degraded").increment();
        if (requestSpan.active())
            requestSpan.attr("degraded", "search-truncated");
        obs::FlightRecorder::record(request.wireId,
                                    obs::FlightPhase::Degraded, 0.0,
                                    obs::FlightReason::SearchTruncated);
        obs::FlightRecorder::instance().requestDump("degraded");
    }
    return response;
}

std::shared_ptr<const CachedModel>
TuningService::buildModelWithRetry(const workloads::Workload &workload,
                                   const ModelKey &key,
                                   const CancelToken &cancel,
                                   int &retries_out)
{
    double backoff = options.retryBackoffInitialSec;
    for (int attempt = 0;; ++attempt) {
        if (cancel.cancelled())
            throw DeadlineExpired();
        try {
            maybeInjectBuildFault();
            return buildModel(workload, key, cancel);
        } catch (const TransientModelError &) {
            if (attempt >= options.modelBuildMaxRetries)
                throw;
        }
        registry.counter("model_build.retries").increment();
        ++retries_out;
        // Exponential backoff, clipped to the cap and to whatever
        // deadline time remains (remainingSec() is +inf without one).
        const double sleep_sec =
            std::min({backoff, options.retryBackoffMaxSec,
                      cancel.remainingSec()});
        if (sleep_sec > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(sleep_sec));
        }
        backoff *= options.retryBackoffMultiplier;
    }
}

void
TuningService::maybeInjectBuildFault()
{
    const uint64_t attempt =
        buildAttempts.fetch_add(1, std::memory_order_relaxed) + 1;
    registry.counter("model_build.attempts").increment();
    const ServiceOptions::FaultInjection &faults = options.faults;
    bool inject =
        attempt <= static_cast<uint64_t>(
                       std::max(faults.failFirstModelBuilds, 0));
    if (!inject && faults.modelBuildFailureProb > 0.0) {
        Rng draw(combineSeed(faults.seed, attempt));
        inject = draw.uniform() < faults.modelBuildFailureProb;
    }
    if (inject) {
        registry.counter("model_build.transient_failures").increment();
        throw TransientModelError();
    }
}

TuneResponse
TuningService::degradedResponse(const std::string &workload,
                                double native_size, std::string reason,
                                int build_retries, uint32_t wire_id)
{
    TuneResponse response;
    response.workload = workload;
    response.nativeSize = native_size;
    response.best = conf::expertSparkConfig(sim->clusterSpec());
    response.degraded = true;
    response.degradedReason = std::move(reason);
    response.buildRetries = build_retries;
    response.warnings =
        conf::validateForCluster(response.best, sim->clusterSpec());
    registry.counter("requests.degraded").increment();
    // Black-box note + (rate-limited) dump: a degraded answer is the
    // moment the recent-event window is worth keeping.
    obs::FlightRecorder::record(
        wire_id, obs::FlightPhase::Degraded, 0.0,
        obs::flightReasonFromString(response.degradedReason));
    obs::FlightRecorder::instance().requestDump("degraded");
    return response;
}

std::shared_ptr<const CachedModel>
TuningService::buildModel(const workloads::Workload &workload,
                          const ModelKey &key,
                          const CancelToken &cancel)
{
    const auto start = std::chrono::steady_clock::now();
    Executor *executor =
        options.parallelWithinRequest ? &pool : nullptr;

    core::CollectOptions copt = options.tuning.collect;
    // One stream per cache key: rebuilding the same key reproduces the
    // same training set; the request seed must not leak in, or two
    // clients asking the same question would train different models.
    copt.seed = combineSeed(options.tuning.seed,
                            stableHash(key.toString()));
    copt.executor = executor;

    auto entry = std::make_shared<CachedModel>();
    {
        obs::ScopedSpan collectPhase("phase.collect");
        if (collectPhase.active())
            collectPhase.attr("band", static_cast<int64_t>(key.sizeBand));
        core::Collector collector(*sim, workload);
        const auto sizes = bandTrainingSizes(key.sizeBand,
                                             copt.datasetCount);
        auto collected = collector.collectAtSizes(sizes,
                                                  copt.runsPerDataset,
                                                  copt.seed, copt.sampling,
                                                  executor);
        entry->vectors = std::move(collected.vectors);
        entry->overhead.collectingHours =
            collected.simulatedClusterSec / 3600.0;
        entry->overhead.trainingRuns = entry->vectors.size();
    }

    if (cancel.cancelled())
        throw DeadlineExpired();

    {
        obs::ScopedSpan modelPhase("phase.model");
        // The deadline stops HM refinement between rounds; whatever
        // order it reached is still a usable (cacheable) model.
        ml::HmParams hp = options.tuning.hm;
        hp.cancel = &cancel;
        auto report = core::buildAndValidate(core::ModelKind::HM,
                                             entry->vectors, hp, true,
                                             copt.seed);
        entry->model = std::shared_ptr<const ml::Model>(
            std::move(report.model));
        entry->compiled = std::shared_ptr<const ml::FlatEnsemble>(
            entry->model->compile());
        entry->overhead.modelingSec = report.trainWallSec;
        entry->modelErrorPct = report.testErrorPct;
        if (modelPhase.active())
            modelPhase.attr("test_error_pct", entry->modelErrorPct);
    }

    registry.counter("models.built").increment();
    registry.histogram("latency.model_build").observe(elapsedSec(start));
    return entry;
}

void
TuningService::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        accepting = false;
    }
    // Drains every accepted request, then joins the workers.
    pool.shutdown();
}

void
TuningService::refreshGauges()
{
    const auto stats = cache.stats();
    registry.setGauge("pool.queue_depth",
                      static_cast<double>(pool.queueDepth()));
    registry.setGauge("pool.threads",
                      static_cast<double>(pool.threadCount()));
    registry.setGauge("cache.size", static_cast<double>(stats.size));
    registry.setGauge("cache.hits", static_cast<double>(stats.hits));
    registry.setGauge("cache.misses",
                      static_cast<double>(stats.misses));
    registry.setGauge("cache.coalesced",
                      static_cast<double>(stats.coalesced));
    registry.setGauge("cache.evictions",
                      static_cast<double>(stats.evictions));
    registry.setGauge("cache.hit_rate", stats.hitRate());
}

std::string
TuningService::statusReport()
{
    refreshGauges();
    return registry.report();
}

ModelCache::SnapshotIo
TuningService::snapshotNow()
{
    ModelCache::SnapshotIo io;
    if (options.snapshotDir.empty())
        return io;
    io = cache.snapshotTo(options.snapshotDir);
    registry.counter("snapshot.saved")
        .increment(static_cast<uint64_t>(io.saved));
    registry.counter("snapshot.save_failed")
        .increment(static_cast<uint64_t>(io.failed));
    return io;
}

} // namespace dac::service
