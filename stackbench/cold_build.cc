/**
 * @file
 * cold-build: a closed loop with one in-process caller, one
 * TuningService::submit at a time. Each round asks each of the 12
 * model keys once on a fresh service, so every request collects,
 * trains, compiles and searches — the paper's dominant cost (Table 3).
 * Rounds repeat the same keys with new seeds, and a run makes a fixed
 * number of rounds per second of --seconds, so every run has the same
 * composition and size: sample counts, the tail percentile and the
 * memory the fresh services leave behind compare across runs.
 */

#include <algorithm>
#include <cmath>

#include "net/client.h"
#include "obs/flight_recorder.h"
#include "run.h"
#include "stats.h"
#include "traffic.h"

namespace stackbench {

namespace {

/** The warm-up's round index: one the timed window never reaches. */
constexpr size_t kWarmUpRound = size_t{1} << 20;
/** Rounds per second of --seconds: about a third of a second of
 *  tuning each on a 4-core host with two pool workers. */
constexpr double kRoundsPerSecond = 3.0;
/** Rounds every run makes at least: enough to ask all 30 pairs (the
 *  largest key serves five). */
constexpr size_t kMinRounds = 5;

} // namespace

Outcome
runColdBuild(const RunConfig &config)
{
    Outcome out;
    std::unique_ptr<Stack> stack;
    const auto setupSecs = setUpRepeatedly(
        config.traced ? 1 : kSetupReps, false, stack, [&](Stack &s) {
            for (const auto &request :
                 coldBuildRound(config.seed, kWarmUpRound)) {
                const auto problem =
                    answerProblem(s.service.submit(request).get());
                if (!problem.empty())
                    out.problems.push_back("warm-up: " + problem);
            }
        });

    // Each round is one block (blockAt): a traced run switches the
    // flight recorder by round (the server metrics take no part
    // in-process) and replays each traced round layer by layer right
    // after it, so service and replay timings share the same
    // conditions.
    auto &recorder = dac::obs::FlightRecorder::instance();
    std::vector<Served> served;
    Layers layers;
    dac::service::ModelCache::Stats cache{};
    const size_t rounds = std::max(
        kMinRounds,
        static_cast<size_t>(std::llround(kRoundsPerSecond * config.seconds)));
    const CpuTimes cpuBefore = readCpuTimes();
    const auto start = Clock::now();
    for (size_t round = 0; round < rounds; ++round) {
        const Block block = blockAt(config.traced, round);
        recorder.setEnabled(block.obsOn);
        const size_t first = served.size();
        {
            dac::service::TuningService service(stack->sim,
                                                benchServiceOptions());
            for (auto &request : coldBuildRound(config.seed, round)) {
                Served s;
                s.request = std::move(request);
                s.traced = block.traced;
                s.obsOn = block.obsOn;
                const auto t0 = Clock::now();
                s.response = service.submit(s.request).get();
                s.latencySec = s.rttSec = secondsSince(t0);
                served.push_back(std::move(s));
            }
            accumulate(cache, service.cacheStats());
        }
        if (!block.traced)
            continue;
        dac::service::ThreadPool pool(poolWorkers());
        for (size_t i = first; i < served.size(); ++i) {
            Replay replay = replayTune(stack->sim, served[i].request, pool);
            checkReplay(replay, served[i], out);
            const auto &response = served[i].response;
            layers.buildPairs.push_back(
                {response.phaseSec(dac::service::Phase::ModelBuild) +
                     response.phaseSec(dac::service::Phase::Search),
                 replay.collectSec + replay.trainSec + replay.compileSec +
                     replay.searchSec});
            layers.replays.push_back(std::move(replay));
        }
    }
    const double windowSec = secondsSince(start);
    recorder.setEnabled(true);
    out.context.push_back(
        "cpu_steal_pct=" +
        std::to_string(stealPct(cpuBefore, readCpuTimes())) + " rounds=" +
        std::to_string(served.size() / modelKeys().size()));
    judge(served, out);

    // The fixed sample, asked again over the wire: each answer must
    // equal the in-process one bit for bit.
    const auto sample = firstOfEachPair(served);
    std::vector<Served> wire;
    const auto serverBefore = stack->server.stats();
    {
        dac::net::Client client("127.0.0.1", stack->server.port());
        for (const size_t i : sample) {
            Served w;
            w.request = served[i].request;
            const auto t0 = Clock::now();
            try {
                w.response = client.request(w.request);
            } catch (const dac::net::RpcError &error) {
                w.problem = error.what();
            }
            w.latencySec = w.rttSec = secondsSince(t0);
            if (w.problem.empty())
                w.problem = answerProblem(w.response);
            if (w.problem.empty())
                w.problem = answerDifference(w.response, served[i].response);
            w.ok = w.problem.empty();
            if (!w.ok) {
                out.problems.push_back("wire answer for " +
                                       where(w.request) + ": " + w.problem);
            }
            wire.push_back(std::move(w));
        }
    }

    if (!config.traced) {
        // Every timed answer is scored: the rounds are fixed by the
        // seed, and a large set keeps the quality medians steady
        // across seeds.
        std::vector<dac::service::TuneResponse> answers;
        for (const Served &s : served)
            answers.push_back(s.response);
        EndToEnd e2e;
        e2e.setupSecs = setupSecs;
        e2e.tailCap = 95.0;
        e2e.windowSec = windowSec;
        e2e.quality = evaluateQuality(stack->sim, answers);
        addEndToEnd(served, e2e, out);
        return out;
    }

    RepeatCounter repeats;
    for (const Served &s : served)
        repeats.observe(s.request.workload, s.request.nativeSize,
                        s.request.seed);
    layers.wire = &wire;
    layers.delta.cache = cache;
    layers.delta.server = statsDelta(stack->server.stats(), serverBefore);
    layers.repeatShare = repeats.share();
    probeLayers(stack->sim, {}, layers, out);
    addLayers(served, layers, true, out);
    return out;
}

} // namespace stackbench
