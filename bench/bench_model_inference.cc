/**
 * @file
 * Inference micro-benchmarks (google-benchmark): the interpreted
 * pointer-walk vs the compiled FlatEnsemble, single-query and batched
 * at GA-population sizes, plus the end effect on a GA search — the
 * consumer the compilation exists for (populationSize x generations
 * model queries per tune request, Section 3.3).
 *
 * Per-walk rows (BM_PredictKernel/<walk>, BM_PredictBatchKernel/
 * <walk>/1000) put the serial reference walk (predictSerial) and the
 * blocked walk (predict / predictBatch) side by side in one JSON run —
 * the numbers EXPERIMENTS.md quotes, and what the perf-smoke gate
 * pins. Every inference row reports predictions/s via
 * items_per_second.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "ga/ga.h"
#include "ml/flat_ensemble.h"
#include "ml/hm.h"
#include "ml/log_target.h"
#include "support/random.h"

namespace {

using namespace dac;

constexpr size_t kFeatures = 42; // Spark space + dsize (Table 2)

/** An HM at modeler scale, trained once and shared by every bench. */
const ml::LogTargetModel &
model()
{
    static const auto trained = [] {
        ml::DataSet data(kFeatures);
        Rng rng(17);
        for (int i = 0; i < 600; ++i) {
            std::vector<double> x(kFeatures);
            for (double &v : x)
                v = rng.uniform();
            data.addRow(x, 40.0 + x[0] * 30.0 + x[1] * x[2] * 20.0 +
                               (x[3] > 0.5 ? 10.0 * x[4] : 0.0));
        }
        ml::HmParams hp;
        hp.firstOrder.maxTrees = 300;
        hp.firstOrder.convergencePatience = 0;
        hp.firstOrder.targetErrorPct = 0.0;
        hp.firstOrder.targetIsLog = true;
        hp.targetIsLog = true;
        auto m = std::make_unique<ml::LogTargetModel>(
            std::make_unique<ml::HierarchicalModel>(hp));
        m->train(data);
        return m;
    }();
    return *trained;
}

const ml::FlatEnsemble &
compiled()
{
    static const auto flat = model().compile();
    return *flat;
}

/**
 * A pool of distinct queries, cycled so the walk sees GA-like traffic
 * (the GA never scores the same genome twice; a single repeated query
 * would let the branch predictor memorize the whole tree path and
 * flatter the pointer-walk).
 */
const std::vector<std::vector<double>> &
queryPool()
{
    static const auto pool = [] {
        Rng rng(23);
        std::vector<std::vector<double>> qs(512);
        for (auto &q : qs) {
            q.resize(kFeatures);
            for (double &v : q)
                v = rng.uniform();
        }
        return qs;
    }();
    return pool;
}

void
BM_PredictPointerWalk(benchmark::State &state)
{
    const auto &pool = queryPool();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model().predict(pool[i]));
        i = (i + 1) % pool.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictPointerWalk);

void
BM_PredictCompiled(benchmark::State &state)
{
    const auto &pool = queryPool();
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            compiled().predict(pool[i].data(), kFeatures));
        i = (i + 1) % pool.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictCompiled);

void
BM_PredictBatchCompiled(benchmark::State &state)
{
    // One GA generation's worth of queries through the packed batch
    // path (per-item time is what a generation pays per individual).
    const size_t count = static_cast<size_t>(state.range(0));
    Rng rng(2);
    std::vector<double> rows(count * kFeatures);
    for (double &v : rows)
        v = rng.uniform();
    std::vector<double> out(count);
    for (auto _ : state) {
        compiled().predictBatch(rows.data(), kFeatures, count,
                                out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(count));
}
BENCHMARK(BM_PredictBatchCompiled)->Arg(50)->Arg(200)->Arg(1000);

/** One query at a time through the serial reference walk
 *  (predictSerial) or the blocked walk (predict). */
void
BM_PredictKernel(benchmark::State &state, bool serial)
{
    const auto &pool = queryPool();
    size_t i = 0;
    for (auto _ : state) {
        const double *x = pool[i].data();
        benchmark::DoNotOptimize(serial
                                     ? compiled().predictSerial(x, kFeatures)
                                     : compiled().predict(x, kFeatures));
        i = (i + 1) % pool.size();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_PredictKernel, serial, true);
BENCHMARK_CAPTURE(BM_PredictKernel, scalar, false);

/**
 * state.range(0) packed rows through the serial reference walk, one
 * row at a time, or through predictBatch's row-interleaved walk — the
 * pair that shows what interleaving rows buys.
 */
void
BM_PredictBatchKernel(benchmark::State &state, bool serial)
{
    const size_t count = static_cast<size_t>(state.range(0));
    Rng rng(2);
    std::vector<double> rows(count * kFeatures);
    for (double &v : rows)
        v = rng.uniform();
    std::vector<double> out(count);
    for (auto _ : state) {
        if (serial) {
            for (size_t i = 0; i < count; ++i)
                out[i] = compiled().predictSerial(
                    rows.data() + i * kFeatures, kFeatures);
        } else {
            compiled().predictBatch(rows.data(), kFeatures, count,
                                    out.data());
        }
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(count));
}
BENCHMARK_CAPTURE(BM_PredictBatchKernel, serial, true)->Arg(1000);
BENCHMARK_CAPTURE(BM_PredictBatchKernel, scalar, false)->Arg(1000);

/** 10 GA generations, scoring through the interpreted model. */
void
BM_GaSearchInterpreted(benchmark::State &state)
{
    auto objective = [&](const std::vector<double> &g) {
        return model().predict(g);
    };
    for (auto _ : state) {
        ga::GaParams p;
        p.maxGenerations = 10;
        p.convergencePatience = 0;
        ga::GeneticAlgorithm ga(p);
        benchmark::DoNotOptimize(
            ga.minimize(objective, kFeatures).bestFitness);
    }
}
BENCHMARK(BM_GaSearchInterpreted);

/** The same 10 generations, scored through FlatEnsemble batches. */
void
BM_GaSearchCompiled(benchmark::State &state)
{
    auto batch = [&](const double *const *genomes, size_t count,
                     double *fitness) {
        compiled().predictBatch(genomes, count, kFeatures, fitness);
    };
    for (auto _ : state) {
        ga::GaParams p;
        p.maxGenerations = 10;
        p.convergencePatience = 0;
        ga::GeneticAlgorithm ga(p);
        benchmark::DoNotOptimize(
            ga.minimize(ga::GeneticAlgorithm::BatchObjective(batch),
                        kFeatures)
                .bestFitness);
    }
}
BENCHMARK(BM_GaSearchCompiled);

} // namespace

int
main(int argc, char **argv)
{
    // Train/compile the shared model before any benchmark is timed:
    // model() is called inside the timed loops, and at short
    // --benchmark_min_time a single ~100ms lazy-init iteration can
    // satisfy min_time and be reported as the row's result.
    compiled();
    queryPool();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
