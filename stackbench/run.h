/**
 * @file
 * One benchmark run: its configuration, the timed requests it served,
 * and the outcome it reports (metrics, attempted and failed counts,
 * correctness problems, run context). The four workloads live in
 * cold_build.cc and serve.cc; the metric assembly they share lives in
 * run.cc.
 */
#ifndef STACKBENCH_RUN_H
#define STACKBENCH_RUN_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/server.h"
#include "service/model_cache.h"
#include "service/request.h"
#include "stack.h"

namespace stackbench {

/** Command-line settings of one run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool traced = false;
};

/** One reported metric. */
struct Metric
{
    std::string name;
    std::string unit;
    double value = 0.0;
    /** Samples behind the value (0 when it is a single reading). */
    size_t samples = 0;
    std::string note;
};

/** What a run reports. */
struct Outcome
{
    size_t attempted = 0;
    size_t failed = 0;
    /** Correctness problems; any one fails the run. */
    std::vector<std::string> problems;
    std::vector<Metric> metrics;
    /** Run-context lines printed with the result. */
    std::vector<std::string> context;

    void add(std::string name, std::string unit, double value,
             size_t samples = 0, std::string note = "");
};

/** One timed request and what became of it. */
struct Served
{
    dac::service::TuneRequest request;
    dac::service::TuneResponse response;
    /** Client-measured latency, seconds: from when the request was
     *  due (open loop) or sent (closed loop) to its decoded reply. */
    double latencySec = 0.0;
    /** Wire round trip, seconds: from the send to the decoded reply
     *  (equals latencySec in a closed loop). */
    double rttSec = 0.0;
    /** Answered, non-degraded, inside the Spark space. */
    bool ok = false;
    /** Why not ok (empty when ok). */
    std::string problem;
    /** Served in a traced block (see Block). */
    bool traced = false;
    /** Flight recorder and server metrics were on. */
    bool obsOn = true;
};

/**
 * How one block of a run is served. An untraced run serves every
 * block as `untraced`. A traced run cycles through three blocks:
 * untraced (served exactly as an untraced run serves it), traced with
 * observability on, and traced with it off. bench.trace_overhead_pct
 * compares the first two, obs.overhead_pct the last two; in traced
 * blocks, cold-build also replays each round layer by layer.
 */
struct Block
{
    bool traced = false;
    bool obsOn = true;
};

/** Block number `index` of a run (traced or not). */
[[nodiscard]] Block blockAt(bool traced_run, size_t index);

/** "KM@160" for problem messages. */
[[nodiscard]] std::string where(const dac::service::TuneRequest &request);

/** Set-up repetitions of an untraced run; setup_s is their median. */
inline constexpr size_t kSetupReps = 7;

/**
 * Set up the stack `reps` times and keep the last one. Each set-up
 * builds the simulator, service and server and runs `warm_up` on
 * them; the first is timed from process start, the others from
 * their own start. Returns the set-up times, seconds.
 */
std::vector<double> setUpRepeatedly(
    size_t reps, bool bare_server, std::unique_ptr<Stack> &stack,
    const std::function<void(Stack &)> &warm_up);

/**
 * Mark each record ok or not and count attempted and failed into
 * `out`. Every failed record (an error reply, a lost connection, a
 * degraded answer, a configuration outside the Spark space) is also a
 * correctness problem.
 */
void judge(std::vector<Served> &served, Outcome &out);

/**
 * For each Table 1 pair, the first record in `served` (in the given
 * order) that asks it: the fixed sample the quality metrics and the
 * wire-versus-in-process check use.
 */
[[nodiscard]] std::vector<size_t>
firstOfEachPair(const std::vector<Served> &served);

/** Inputs of the end-to-end metrics. */
struct EndToEnd
{
    std::vector<double> setupSecs;
    /** Highest tail percentile this workload reports. */
    double tailCap = 99.0;
    /** Length of the timed window, seconds. */
    double windowSec = 0.0;
    Quality quality;
};

/** Add the 8 end-to-end metrics of `served` to `out`. */
void addEndToEnd(const std::vector<Served> &served, const EndToEnd &e2e,
                 Outcome &out);

/** Server-side counters over a timed window. */
struct WindowCounters
{
    dac::service::ModelCache::Stats cache;
    dac::net::TuningServer::Stats server;
};

/** Paired build timings for the cold-build layer-sum check. */
struct BuildPair
{
    /** Service's model-build plus search phases, seconds. */
    double serviceSec = 0.0;
    /** Replay's collect + train + compile + search, seconds. */
    double replaySec = 0.0;
};

/** Inputs of the per-layer metrics of a traced run. */
struct Layers
{
    /** Requests whose wire round trip and server phases give the net
     *  layer (the window on serve-*, the wire sample on cold-build). */
    const std::vector<Served> *wire = nullptr;
    /** Counter deltas: cache over the window, server over `wire`. */
    WindowCounters delta;
    double repeatShare = 0.0;
    std::vector<Replay> replays;
    /** Cold-build only: service vs replay timing of the same tunes. */
    std::vector<BuildPair> buildPairs;
    double collectSerialSec = 0.0;
    double collectPoolSec = 0.0;
    std::vector<double> predictNsPerRow;
};

/**
 * Add every per-layer metric to `out`. `check_layer_sum` gates the run
 * on |bench.unaccounted_pct| <= 10%.
 */
void addLayers(const std::vector<Served> &served, const Layers &layers,
               bool check_layer_sum, Outcome &out);

/**
 * The traced run's common layer probes: replay each request of
 * `expected` layer by layer on a fresh pool (checking each replayed
 * answer against the served one), time serial against pooled
 * collection for every model key, and probe predictBatch on the
 * latest replayed model of each key.
 */
void probeLayers(const dac::sparksim::SparkSimulator &sim,
                 const std::vector<Served> &expected, Layers &layers,
                 Outcome &out);

/** Check a replayed tune against the service's answer for the same
 *  request; a difference is a correctness problem. */
void checkReplay(const Replay &replay, const Served &served, Outcome &out);

/** Counter growth from snapshot `before` to `after`. */
[[nodiscard]] dac::net::TuningServer::Stats
statsDelta(const dac::net::TuningServer::Stats &after,
           const dac::net::TuningServer::Stats &before);

/** Counter growth from snapshot `before` to `after`. */
[[nodiscard]] dac::service::ModelCache::Stats
statsDelta(const dac::service::ModelCache::Stats &after,
           const dac::service::ModelCache::Stats &before);

/** Add `b`'s counters into `a`. */
void accumulate(dac::service::ModelCache::Stats &a,
                const dac::service::ModelCache::Stats &b);

Outcome runColdBuild(const RunConfig &config);
Outcome runServeUnique(const RunConfig &config);
Outcome runServeRepeat(const RunConfig &config);
Outcome runServeSerial(const RunConfig &config);

} // namespace stackbench

#endif // STACKBENCH_RUN_H
