#include "run.h"

#include <cmath>
#include <map>
#include <sstream>

#include "stats.h"
#include "support/statistics.h"
#include "traffic.h"

namespace stackbench {

using dac::service::Phase;

namespace {

/** Bound on |bench.unaccounted_pct| where the layer-sum check holds. */
constexpr double kLayerSumTolerancePct = 10.0;
/** Repetitions of the serial-versus-pooled collection timing. */
constexpr size_t kCollectReps = 4;
/** Timed trials, and predictBatch calls per trial, of a prediction
 *  probe. */
constexpr size_t kPredictTrials = 5;
constexpr size_t kPredictReps = 200;

std::string
percentileName(double pct)
{
    std::ostringstream out;
    out << "p" << pct;
    return out.str();
}

/** Values of `phase`, scaled, over the ok records; records without the
 *  phase count as 0 unless `present_only`. */
std::vector<double>
phaseValues(const std::vector<Served> &served, Phase phase, double scale,
            bool present_only = false)
{
    std::vector<double> out;
    for (const Served &s : served) {
        if (!s.ok)
            continue;
        bool present = false;
        for (const auto &timing : s.response.phases)
            present = present || timing.phase == phase;
        if (present || !present_only)
            out.push_back(s.response.phaseSec(phase) * scale);
    }
    return out;
}

/** Client round trip minus every server-reported phase, ms. */
std::vector<double>
wireMs(const std::vector<Served> &served)
{
    std::vector<double> out;
    for (const Served &s : served) {
        if (!s.ok)
            continue;
        double phases = 0.0;
        for (const auto &timing : s.response.phases)
            phases += timing.sec;
        out.push_back((s.rttSec - phases) * 1e3);
    }
    return out;
}

/** Latencies, ms, of the ok records `keep` selects. */
std::vector<double>
latenciesMs(const std::vector<Served> &served,
            const std::function<bool(const Served &)> &keep)
{
    std::vector<double> out;
    for (const Served &s : served) {
        if (s.ok && keep(s))
            out.push_back(s.latencySec * 1e3);
    }
    return out;
}

/** Percent by which `on` exceeds `off` (medians). */
double
overheadPct(const std::vector<double> &on, const std::vector<double> &off)
{
    const double base = median(off);
    return base > 0.0 ? (median(on) - base) / base * 100.0 : 0.0;
}

double
share(size_t part, size_t whole)
{
    return whole == 0 ? 0.0
                      : static_cast<double>(part) /
                            static_cast<double>(whole);
}

} // namespace

std::string
where(const dac::service::TuneRequest &request)
{
    std::ostringstream out;
    out << request.workload << "@" << request.nativeSize;
    return out.str();
}

void
Outcome::add(std::string name, std::string unit, double value,
             size_t samples, std::string note)
{
    if (!std::isfinite(value)) {
        problems.push_back(name + " is not a finite number");
        value = 0.0;
    }
    metrics.push_back({std::move(name), std::move(unit), value, samples,
                       std::move(note)});
}

std::vector<double>
setUpRepeatedly(size_t reps, bool bare_server, std::unique_ptr<Stack> &stack,
                const std::function<void(Stack &)> &warm_up)
{
    std::vector<double> secs;
    for (size_t rep = 0; rep < reps; ++rep) {
        stack.reset();
        const Clock::time_point start =
            rep == 0 ? processStart() : Clock::now();
        stack = std::make_unique<Stack>(bare_server);
        warm_up(*stack);
        secs.push_back(secondsSince(start));
    }
    return secs;
}

Block
blockAt(bool traced_run, size_t index)
{
    if (!traced_run)
        return {};
    switch (index % 3) {
    case 0:
        return {false, true};
    case 1:
        return {true, true};
    default:
        return {true, false};
    }
}

void
judge(std::vector<Served> &served, Outcome &out)
{
    for (Served &s : served) {
        ++out.attempted;
        if (s.problem.empty())
            s.problem = answerProblem(s.response);
        s.ok = s.problem.empty();
        if (!s.ok) {
            ++out.failed;
            out.problems.push_back(where(s.request) + " failed: " +
                                   s.problem);
        }
    }
}

std::vector<size_t>
firstOfEachPair(const std::vector<Served> &served)
{
    std::vector<size_t> out;
    std::vector<bool> seen(table1Pairs().size(), false);
    for (size_t i = 0; i < served.size(); ++i) {
        const size_t pair = pairOf(served[i].request);
        if (!seen[pair]) {
            seen[pair] = true;
            out.push_back(i);
        }
    }
    return out;
}

void
addEndToEnd(const std::vector<Served> &served, const EndToEnd &e2e,
            Outcome &out)
{
    const auto lat = latenciesMs(served, [](const Served &) { return true; });
    const size_t n = lat.size();
    const double tail = tailPercentile(n, e2e.tailCap);
    if (tail < e2e.tailCap) {
        out.problems.push_back(
            std::to_string(n) + " answers cannot support the " +
            percentileName(e2e.tailCap) + " tail (ten beyond it)");
    }
    std::map<size_t, double> keyError;
    for (const Served &s : served) {
        if (s.ok)
            keyError[keyOfPair(pairOf(s.request))] = s.response.modelErrorPct;
    }
    std::vector<double> errors;
    for (const auto &[key, error] : keyError)
        errors.push_back(error);

    out.add("setup_s", "s", median(e2e.setupSecs), e2e.setupSecs.size(),
            "median of set-ups");
    out.add("tune_p50_ms", "ms", median(lat), n);
    out.add("tune_tail_ms", "ms", percentile(lat, tail), n,
            "tune_" + percentileName(tail) + "_ms");
    out.add("answers_per_s", "1/s",
            e2e.windowSec > 0.0 ? static_cast<double>(n) / e2e.windowSec
                                : 0.0,
            n);
    out.add("speedup_vs_expert", "ratio", e2e.quality.speedupVsExpert,
            e2e.quality.answers, "geomean, fixed answer sample");
    out.add("answer_error_pct", "%", e2e.quality.answerErrorPct,
            e2e.quality.answers, "median, fixed answer sample");
    out.add("model_error_pct", "%", dac::mean(errors), errors.size(),
            "mean over serving models");
    out.add("peak_rss_mb", "MB", peakRssMb());
}

void
addLayers(const std::vector<Served> &served, const Layers &layers,
          bool check_layer_sum, Outcome &out)
{
    const std::vector<Served> &wire = *layers.wire;
    const auto decodeUs = phaseValues(wire, Phase::Decode, 1e6);
    const auto serializeUs = phaseValues(wire, Phase::Serialize, 1e6);
    const auto wireLatMs = wireMs(wire);
    out.add("net.decode_us", "us", median(decodeUs), decodeUs.size());
    out.add("net.serialize_us", "us", median(serializeUs),
            serializeUs.size());
    out.add("net.wire_ms", "ms", median(wireLatMs), wireLatMs.size(),
            "round trip minus server phases");
    const auto &srv = layers.delta.server;
    out.add("net.batch_size", "count",
            srv.batchesSubmitted == 0
                ? 0.0
                : static_cast<double>(srv.requestsSubmitted) /
                      static_cast<double>(srv.batchesSubmitted),
            srv.batchesSubmitted, "requests per submitBatch");
    out.add("net.protocol_errors", "count",
            static_cast<double>(srv.protocolErrors));

    const auto queueMs = phaseValues(served, Phase::Queue, 1e3);
    const auto lookupUs = phaseValues(served, Phase::CacheLookup, 1e6);
    const auto &cache = layers.delta.cache;
    const uint64_t lookups = cache.hits + cache.coalesced + cache.misses;
    size_t coalesced = 0;
    size_t degraded = 0;
    for (const Served &s : served) {
        coalesced += s.response.coalesced ? 1 : 0;
        degraded += s.response.degraded ? 1 : 0;
    }
    out.add("service.queue_ms", "ms", median(queueMs), queueMs.size());
    out.add("service.queue_p99_ms", "ms", percentile(queueMs, 99.0),
            queueMs.size(),
            samplesBeyond(queueMs.size(), 99.0) >= 10
                ? ""
                : "fewer than ten samples beyond p99");
    out.add("service.cache_lookup_us", "us", median(lookupUs),
            lookupUs.size());
    out.add("service.cache_hit_ratio", "ratio",
            share(cache.hits + cache.coalesced, lookups), lookups);
    out.add("service.models_built", "count",
            static_cast<double>(cache.misses));
    out.add("service.evictions", "count",
            static_cast<double>(cache.evictions));
    out.add("service.coalesced_share", "ratio",
            share(coalesced, served.size()), served.size());
    out.add("service.repeat_share", "ratio", layers.repeatShare,
            served.size());
    out.add("service.degraded", "count", static_cast<double>(degraded));

    const auto buildMs = phaseValues(served, Phase::ModelBuild, 1e3, true);
    const auto searchMs = phaseValues(served, Phase::Search, 1e3);
    std::vector<double> collectMs, trainMs, compileMs, runs, clusterH,
        trees, generations, useful, rows;
    double collectSec = 0.0;
    double runCount = 0.0;
    for (const Replay &r : layers.replays) {
        collectMs.push_back(r.collectSec * 1e3);
        trainMs.push_back(r.trainSec * 1e3);
        compileMs.push_back(r.compileSec * 1e3);
        runs.push_back(static_cast<double>(r.runs));
        clusterH.push_back(r.clusterSec / 3600.0);
        trees.push_back(static_cast<double>(r.trees));
        const int gens = r.search.ga.generations;
        generations.push_back(gens);
        useful.push_back(gens == 0 ? 0.0
                                   : (r.search.ga.convergedAt + 1.0) / gens);
        rows.push_back(static_cast<double>(gens) *
                       static_cast<double>(r.population));
        collectSec += r.collectSec;
        runCount += static_cast<double>(r.runs);
    }
    const size_t nr = layers.replays.size();
    out.add("dac.build_ms", "ms", median(buildMs), buildMs.size(),
            "model-build phase of requests that built");
    out.add("dac.collect_ms", "ms", median(collectMs), nr);
    out.add("sparksim.runs_per_build", "count", dac::mean(runs), nr);
    out.add("sparksim.runs_per_s", "1/s",
            collectSec > 0.0 ? runCount / collectSec : 0.0, nr);
    out.add("dac.collect_cluster_h", "h", dac::mean(clusterH), nr,
            "simulated cluster time per build");
    out.add("dac.collect_parallel_speedup", "ratio",
            layers.collectPoolSec > 0.0
                ? layers.collectSerialSec / layers.collectPoolSec
                : 0.0,
            modelKeys().size(),
            "serial / " + std::to_string(poolWorkers()) + "-worker pool");
    out.add("dac.train_ms", "ms", median(trainMs), nr);
    out.add("ml.compile_ms", "ms", median(compileMs), nr);
    out.add("ml.trees_per_build", "count", dac::mean(trees), nr);
    out.add("dac.search_ms", "ms", median(searchMs), searchMs.size());
    out.add("ga.generations", "count", dac::mean(generations), nr);
    out.add("ga.useful_generation_ratio", "ratio", dac::mean(useful), nr,
            "(convergedAt + 1) / generations");
    out.add("ml.predict_rows_per_search", "count", dac::mean(rows), nr);
    out.add("ml.predict_ns_per_row", "ns", median(layers.predictNsPerRow),
            layers.predictNsPerRow.size(), "50-row predictBatch");

    const auto tracedObsOn = latenciesMs(
        served, [](const Served &s) { return s.traced && s.obsOn; });
    const auto tracedObsOff = latenciesMs(
        served, [](const Served &s) { return s.traced && !s.obsOn; });
    const auto untraced =
        latenciesMs(served, [](const Served &s) { return !s.traced; });
    out.add("obs.overhead_pct", "%", overheadPct(tracedObsOn, tracedObsOff),
            tracedObsOn.size() + tracedObsOff.size(),
            "tune_p50_ms obs on vs off");
    out.add("bench.trace_overhead_pct", "%",
            overheadPct(tracedObsOn, untraced),
            tracedObsOn.size() + untraced.size(),
            "tune_p50_ms traced vs untraced blocks");

    // Layer sum: on the wire, the p50 of every server phase plus the
    // wire remainder against the client's p50; on cold-build, the
    // replayed layers against the service's build and search phases
    // of the same tunes.
    double unaccounted = 0.0;
    std::string basis;
    if (!layers.buildPairs.empty()) {
        double service = 0.0;
        double replay = 0.0;
        for (const BuildPair &pair : layers.buildPairs) {
            service += pair.serviceSec;
            replay += pair.replaySec;
        }
        unaccounted = service > 0.0 ? (service - replay) / service * 100.0
                                    : 0.0;
        basis = "replay vs service build + search";
    } else {
        // An open loop's latency also holds the generator's lateness
        // (due time to send); a closed loop has none.
        std::vector<double> lateMs;
        for (const Served &s : wire) {
            if (s.ok)
                lateMs.push_back((s.latencySec - s.rttSec) * 1e3);
        }
        const double e2e = median(latenciesMs(
            wire, [](const Served &) { return true; }));
        double layerSum = median(wireLatMs) + median(lateMs);
        for (const Phase phase :
             {Phase::Decode, Phase::Queue, Phase::CacheLookup,
              Phase::ModelBuild, Phase::Search, Phase::Serialize})
            layerSum += median(phaseValues(wire, phase, 1e3));
        unaccounted = e2e > 0.0 ? (e2e - layerSum) / e2e * 100.0 : 0.0;
        basis = "sum of layer p50s vs tune_p50_ms";
    }
    out.add("bench.unaccounted_pct", "%", unaccounted, 0, basis);
    if (check_layer_sum && std::abs(unaccounted) > kLayerSumTolerancePct) {
        std::ostringstream why;
        why << "layer sum leaves " << unaccounted
            << "% unaccounted (tolerance " << kLayerSumTolerancePct
            << "%)";
        out.problems.push_back(why.str());
    }
}

void
checkReplay(const Replay &replay, const Served &served, Outcome &out)
{
    dac::service::TuneResponse replayed = served.response;
    replayed.best = replay.search.best;
    replayed.predictedTimeSec = replay.search.predictedTimeSec;
    replayed.modelErrorPct = replay.modelErrorPct;
    const std::string diff = answerDifference(replayed, served.response);
    if (!diff.empty()) {
        out.problems.push_back("replay of " + where(served.request) +
                               " diverged from the service: " + diff);
    }
}

void
probeLayers(const dac::sparksim::SparkSimulator &sim,
            const std::vector<Served> &expected, Layers &layers,
            Outcome &out)
{
    dac::service::ThreadPool pool(poolWorkers());
    for (const Served &s : expected) {
        layers.replays.push_back(replayTune(sim, s.request, pool));
        checkReplay(layers.replays.back(), s, out);
    }

    // Alternate which side goes first so drift between the two
    // timings cancels.
    for (size_t rep = 0; rep < kCollectReps; ++rep) {
        for (const KeyGroup &key : modelKeys()) {
            const auto request = makeRequest(key.pairs.front(), 0);
            if (rep % 2 == 0) {
                layers.collectSerialSec += timeCollect(sim, request, nullptr);
                layers.collectPoolSec += timeCollect(sim, request, &pool);
            } else {
                layers.collectPoolSec += timeCollect(sim, request, &pool);
                layers.collectSerialSec += timeCollect(sim, request, nullptr);
            }
        }
    }

    std::map<size_t, const Replay *> latest;
    for (const Replay &replay : layers.replays)
        latest[keyOfPair(pairOf(replay.request))] = &replay;
    for (const auto &[key, replay] : latest)
        layers.predictNsPerRow.push_back(
            predictNsPerRow(*replay, kPredictTrials, kPredictReps));
}

dac::net::TuningServer::Stats
statsDelta(const dac::net::TuningServer::Stats &after,
           const dac::net::TuningServer::Stats &before)
{
    dac::net::TuningServer::Stats d = after;
    d.connectionsAccepted -= before.connectionsAccepted;
    d.connectionsClosed -= before.connectionsClosed;
    d.framesReceived -= before.framesReceived;
    d.framesSent -= before.framesSent;
    d.batchesSubmitted -= before.batchesSubmitted;
    d.requestsSubmitted -= before.requestsSubmitted;
    d.protocolErrors -= before.protocolErrors;
    d.repliesDegraded -= before.repliesDegraded;
    return d;
}

dac::service::ModelCache::Stats
statsDelta(const dac::service::ModelCache::Stats &after,
           const dac::service::ModelCache::Stats &before)
{
    dac::service::ModelCache::Stats d = after;
    d.hits -= before.hits;
    d.misses -= before.misses;
    d.coalesced -= before.coalesced;
    d.evictions -= before.evictions;
    return d;
}

void
accumulate(dac::service::ModelCache::Stats &a,
           const dac::service::ModelCache::Stats &b)
{
    a.hits += b.hits;
    a.misses += b.misses;
    a.coalesced += b.coalesced;
    a.evictions += b.evictions;
}

} // namespace stackbench
