/**
 * @file
 * The serving stack under test, deployed as examples/tuning_server.cpp
 * deploys it, plus the benchmark's own instruments around it: answer
 * checks, the quality evaluation, the timed layer-by-layer replay of
 * one tune, and the host context recorded with every result.
 */
#ifndef STACKBENCH_STACK_H
#define STACKBENCH_STACK_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dac/perfvector.h"
#include "ml/flat_ensemble.h"
#include "net/server.h"
#include "service/service.h"
#include "sparksim/simulator.h"

namespace stackbench {

using Clock = std::chrono::steady_clock;

/** Seconds from `since` to now. */
[[nodiscard]] double secondsSince(Clock::time_point since);

/** When the process started (static initialization). */
[[nodiscard]] Clock::time_point processStart();

/** Service pool workers: nproc - 2 (at least 1), so the process never
 *  has more busy threads than cores. */
[[nodiscard]] size_t poolWorkers();

/**
 * The deployment's service options at the benchmark's tuning scale:
 * m = 5 training sizes, k = 16 runs per size, nt = 80 trees, and 30 GA
 * generations of 50 (examples/tuning_server.cpp's settings). Every
 * other option keeps its default except the pool size (poolWorkers()).
 */
[[nodiscard]] dac::service::ServiceOptions benchServiceOptions();

/**
 * Simulator, service and wire server, constructed and started as the
 * tuning_server example does. With `with_bare_server`, a second
 * server without metrics fronts the same service, so a traced run can
 * compare serving with observability on and off.
 */
struct Stack
{
    explicit Stack(bool with_bare_server = false);

    dac::sparksim::SparkSimulator sim;
    dac::service::TuningService service;
    dac::net::TuningServer server;
    std::unique_ptr<dac::net::TuningServer> bare;
};

/** Empty when `response` is a usable answer: not degraded, and a
 *  configuration whose every value is legal in ConfigSpace::spark().
 *  Otherwise why not. */
[[nodiscard]] std::string answerProblem(
    const dac::service::TuneResponse &response);

/** Empty when two answers agree bit for bit (configuration values,
 *  predicted time, model error, degradation, warnings); otherwise the
 *  first difference. */
[[nodiscard]] std::string answerDifference(
    const dac::service::TuneResponse &a,
    const dac::service::TuneResponse &b);

/** Fig. 12 / Fig. 10 quality of a fixed set of answers, each measured
 *  on the simulator with fixed seeds. */
struct Quality
{
    /** Geometric mean of expert time / answer time. */
    double speedupVsExpert = 0.0;
    /** Median |predicted - simulated| / simulated, percent. */
    double answerErrorPct = 0.0;
    size_t answers = 0;
};

[[nodiscard]] Quality evaluateQuality(
    const dac::sparksim::SparkSimulator &sim,
    const std::vector<dac::service::TuneResponse> &answers);

/** One tune replayed layer by layer on the service's inputs. */
struct Replay
{
    dac::service::TuneRequest request;
    double collectSec = 0.0;
    double trainSec = 0.0;
    double compileSec = 0.0;
    double searchSec = 0.0;
    /** Simulated runs the collection made, and their cluster time. */
    size_t runs = 0;
    double clusterSec = 0.0;
    size_t trees = 0;
    double modelErrorPct = 0.0;
    dac::core::SearchResult search{
        dac::conf::Configuration(dac::conf::ConfigSpace::spark()), 0.0, {},
        0.0};
    size_t population = 0;
    /** What a prediction probe needs: the compiled model, its training
     *  vectors, and the request's dataset size in bytes. */
    std::shared_ptr<const dac::ml::FlatEnsemble> compiled;
    std::vector<dac::core::PerfVector> vectors;
    double dsizeBytes = 0.0;
};

/**
 * Replay the tune `request` gets from a cold service: collect
 * (Collector::collectAtSizes), train (core::buildAndValidate),
 * compile (Model::compile) and search (Searcher::search), each timed,
 * on exactly the inputs TuningService uses. Runs as one task on
 * `pool`, as the service runs a request, so parallel collection and
 * search get the same threads. Its timings are the traced run's
 * layer spans.
 */
[[nodiscard]] Replay replayTune(const dac::sparksim::SparkSimulator &sim,
                                const dac::service::TuneRequest &request,
                                dac::service::ThreadPool &pool);

/**
 * Seconds of one collection campaign for `request`'s model key, run
 * serially or as a task on `pool` (parallel). Same inputs as the
 * replay; the runs are bit-identical either way.
 */
[[nodiscard]] double timeCollect(const dac::sparksim::SparkSimulator &sim,
                                 const dac::service::TuneRequest &request,
                                 dac::service::ThreadPool *pool);

/** Nanoseconds per row of a 50-row FlatEnsemble::predictBatch (one GA
 *  generation) on the replay's model: the median of `trials` timings
 *  of `reps` calls each. */
[[nodiscard]] double predictNsPerRow(const Replay &replay, size_t trials,
                                     size_t reps);

/** CPU time counters from /proc/stat's aggregate line (jiffies). */
struct CpuTimes
{
    uint64_t total = 0;
    uint64_t steal = 0;
};

[[nodiscard]] CpuTimes readCpuTimes();

/** Steal share, percent, between two readings. */
[[nodiscard]] double stealPct(const CpuTimes &from, const CpuTimes &to);

/** "nproc=4 load=0.52,0.61,0.70 cpu=..." for the run context. */
[[nodiscard]] std::string hostContext();

/** Peak resident set of this process, MiB. */
[[nodiscard]] double peakRssMb();

} // namespace stackbench

#endif // STACKBENCH_STACK_H
