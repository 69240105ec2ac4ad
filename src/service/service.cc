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

/** Model-build retry backoff growth per attempt (exponential). */
constexpr double kRetryBackoffMultiplier = 2.0;

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
      requestLatency(registry.histogram("latency.request")),
      buildLatency(registry.histogram("latency.model_build")),
      cache(options.modelCacheCapacity),
      pool(ThreadPool::Options{options.threads, options.queueCapacity})
{
    for (size_t i = 0; i < kPhaseCount; ++i) {
        phaseHist[i] = &registry.histogram(
            std::string("phase.") + phaseName(static_cast<Phase>(i)));
    }
    if (!this->options.snapshotDir.empty()) {
        const ModelCache::SnapshotIo io = cache.restoreFrom(
            this->options.snapshotDir, conf::ConfigSpace::spark().size());
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

void
TuningService::submitBatch(std::vector<TuneJob> batch)
{
    std::vector<std::string> keys;
    keys.reserve(batch.size());
    for (const TuneJob &job : batch) {
        keys.push_back(job.request.cacheKey());
        obs::FlightRecorder::record(job.request.wireId,
                                    obs::FlightPhase::QueueEnter);
    }

    // Each request joins the entry of an identical one in flight or
    // opens its own; the entries this call opens, with their keys, run
    // in batch order as one pool task.
    auto opened =
        std::make_shared<std::vector<std::pair<std::string, TuneRequest>>>();
    const auto submitted = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(mutex);
        if (!accepting)
            fatalError("TuningService::submitBatch after shutdown");
        for (size_t i = 0; i < batch.size(); ++i) {
            auto &entry = pending[keys[i]];
            if (!entry) {
                entry = std::make_shared<Pending>();
                entry->submitted = submitted;
                opened->emplace_back(std::move(keys[i]),
                                     std::move(batch[i].request));
            }
            entry->waiters.push_back(std::move(batch[i].reply));
        }
    }
    registry.counter("requests.submitted").increment(batch.size());
    if (batch.size() > 1) {
        registry.counter("requests.batched").increment(batch.size());
        registry.counter("batches.submitted").increment();
    }
    if (opened->size() < batch.size()) {
        registry.counter("requests.coalesced")
            .increment(batch.size() - opened->size());
    }
    if (opened->empty())
        return;

    const bool posted = pool.tryPost([this, opened, submitted]() {
        for (const auto &[key, request] : *opened) {
            TuneResponse answer;
            std::exception_ptr error;
            try {
                answer = process(request, submitted);
            } catch (...) {
                error = std::current_exception();
            }
            close(key, answer, error,
                  error ? Outcome::Failed : Outcome::Served);
        }
    });
    if (!posted) {
        // Backpressure: the queue is full, so answer this call's
        // entries inline with the expert fallback rather than blocking
        // the caller or erroring (reject-with-reason).
        for (const auto &[key, request] : *opened) {
            close(key,
                  degradedResponse(request, "queue-saturated", 0, {}),
                  nullptr, Outcome::Rejected);
        }
    }
}

void
TuningService::close(const std::string &key, const TuneResponse &answer,
                     std::exception_ptr error, Outcome outcome)
{
    std::shared_ptr<Pending> entry;
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = pending.find(key);
        DAC_ASSERT(it != pending.end(), "lost a pending request");
        entry = std::move(it->second);
        pending.erase(it);
    }

    const double latency = elapsedSec(entry->submitted);
    const size_t waiters = entry->waiters.size();
    switch (outcome) {
    case Outcome::Served:
        for (size_t i = 0; i < waiters; ++i)
            requestLatency.observe(latency);
        registry.counter("requests.served").increment(waiters);
        break;
    case Outcome::Failed:
        registry.counter("requests.failed").increment(waiters);
        break;
    case Outcome::Rejected:
        registry.counter("requests.rejected").increment(waiters);
        break;
    }
    for (size_t i = 0; i < waiters; ++i) {
        if (error) {
            entry->waiters[i](TuneResponse{}, error);
            continue;
        }
        TuneResponse copy = answer;
        copy.coalesced = i > 0;
        copy.latencySec = latency;
        entry->waiters[i](std::move(copy), nullptr);
    }
}

void
TuningService::settle(std::vector<PhaseTiming> &phases, uint32_t wire_id,
                      Phase phase, double sec)
{
    // The flight-record checkpoint at which each Phase settles.
    static constexpr obs::FlightPhase kSettledAt[kPhaseCount] = {
        obs::FlightPhase::Decode,      obs::FlightPhase::QueueExit,
        obs::FlightPhase::CacheLookup, obs::FlightPhase::ModelBuild,
        obs::FlightPhase::Search,      obs::FlightPhase::Serialize,
    };
    const auto index = static_cast<size_t>(phase);
    phases.push_back({phase, sec});
    phaseHist[index]->observe(sec);
    if (phase != Phase::Decode)
        obs::FlightRecorder::record(wire_id, kSettledAt[index], sec);
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
    if (request.decodeSec > 0.0)
        settle(phases, request.wireId, Phase::Decode, request.decodeSec);
    settle(phases, request.wireId, Phase::Queue, elapsedSec(submitted));

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
    // Every early return: the expert fallback, labeled on the span.
    const auto degrade = [&](const char *reason) {
        if (requestSpan.active())
            requestSpan.attr("degraded", reason);
        return degradedResponse(request, reason, build_retries,
                                std::move(phases));
    };
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
        return degrade("deadline");
    } catch (const TransientModelError &) {
        // Retries exhausted (also surfaces to every cache waiter that
        // coalesced onto the failed build — they degrade the same way).
        return degrade("model-failure");
    }
    // The cache-lookup phase is the coordination cost alone: total
    // getOrBuild time minus any build this request ran itself.
    settle(phases, request.wireId, Phase::CacheLookup,
           std::max(0.0, elapsedSec(lookupStart) - buildSec));
    if (builtHere)
        settle(phases, request.wireId, Phase::ModelBuild, buildSec);
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
        return degrade("deadline");
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
    settle(phases, request.wireId, Phase::Search, elapsedSec(searchStart));

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
        registry.counter("deadline.expired").increment();
        registry.counter("search.truncated").increment();
        if (requestSpan.active())
            requestSpan.attr("degraded", "search-truncated");
        markDegraded(response, "search-truncated", request.wireId);
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
        backoff *= kRetryBackoffMultiplier;
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
TuningService::degradedResponse(const TuneRequest &request,
                                const char *reason, int build_retries,
                                std::vector<PhaseTiming> phases)
{
    TuneResponse response;
    response.workload = request.workload;
    response.nativeSize = request.nativeSize;
    response.best = conf::expertSparkConfig(sim->clusterSpec());
    response.buildRetries = build_retries;
    response.warnings =
        conf::validateForCluster(response.best, sim->clusterSpec());
    response.phases = std::move(phases);
    markDegraded(response, reason, request.wireId);
    return response;
}

void
TuningService::markDegraded(TuneResponse &response, const char *reason,
                            uint32_t wire_id)
{
    response.degraded = true;
    response.degradedReason = reason;
    registry.counter("requests.degraded").increment();
    // Black-box note + (rate-limited) dump: a degraded answer is the
    // moment the recent-event window is worth keeping.
    obs::FlightRecorder::record(
        wire_id, obs::FlightPhase::Degraded, 0.0,
        obs::flightReasonFromString(response.degradedReason));
    obs::FlightRecorder::instance().requestDump("degraded");
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
    buildLatency.observe(elapsedSec(start));
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
