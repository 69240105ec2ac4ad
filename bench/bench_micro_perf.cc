/**
 * @file
 * Micro-benchmarks (google-benchmark): throughput of the substrate
 * pieces that bound the tuning pipeline — simulator runs, tree
 * training, model prediction, random draws, GA generations, and a
 * warm search at serving scale. The paper's Table 3 cost argument
 * rests on model queries being ~milliseconds.
 */

#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "conf/generator.h"
#include "dac/collector.h"
#include "dac/modeler.h"
#include "dac/searcher.h"
#include "ga/ga.h"
#include "ml/boosting.h"
#include "ml/flat_ensemble.h"
#include "sparksim/simulator.h"
#include "workloads/registry.h"

namespace {

using namespace dac;

const sparksim::SparkSimulator &
simulator()
{
    static const sparksim::SparkSimulator sim(
        cluster::ClusterSpec::paperTestbed());
    return sim;
}

void
BM_SimulatorRun(benchmark::State &state)
{
    const auto &w = workloads::Registry::instance().byAbbrev(
        state.range(0) == 0 ? "WC" : "PR");
    const auto dag = w.buildDag(w.paperSizes().back());
    conf::ConfigGenerator gen(conf::ConfigSpace::spark(), Rng(1));
    const auto cfg = gen.random();
    uint64_t seed = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulator().run(dag, cfg, ++seed).timeSec);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulatorRun)->Arg(0)->Arg(1);

void
BM_SimulatorRunBatch(benchmark::State &state)
{
    // The batched cost sweep: K distinct configurations against one
    // job through runBatch, whose chunks reuse one scheduler scratch
    // — the shape every collection campaign and model validation
    // sweep has. items/s counts simulated runs.
    const auto &w = workloads::Registry::instance().byAbbrev("WC");
    const auto dag = w.buildDag(w.paperSizes().back());
    const size_t count = static_cast<size_t>(state.range(0));
    conf::ConfigGenerator gen(conf::ConfigSpace::spark(), Rng(1));
    std::vector<conf::Configuration> configs;
    std::vector<uint64_t> seeds;
    configs.reserve(count);
    seeds.reserve(count);
    for (size_t i = 0; i < count; ++i) {
        configs.push_back(gen.random());
        seeds.push_back(i + 1);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            simulator().runBatch(dag, configs, seeds).back().timeSec);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                            static_cast<int64_t>(count));
}
BENCHMARK(BM_SimulatorRunBatch)->Arg(64);

void
BM_CollectHundredRuns(benchmark::State &state)
{
    const auto &w = workloads::Registry::instance().byAbbrev("TS");
    core::Collector collector(simulator(), w);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            collector.collectAtSizes({30.0}, 100, 7).vectors.size());
    }
}
BENCHMARK(BM_CollectHundredRuns);

void
BM_TreeTrain2000x42(benchmark::State &state)
{
    ml::DataSet data(42);
    Rng rng(3);
    for (int i = 0; i < 2000; ++i) {
        std::vector<double> x(42);
        for (double &v : x)
            v = rng.uniform();
        data.addRow(x, x[0] * 10.0 + x[1]);
    }
    ml::TreeParams tp;
    tp.treeComplexity = static_cast<int>(state.range(0));
    for (auto _ : state) {
        ml::RegressionTree tree(tp);
        tree.train(data);
        benchmark::DoNotOptimize(tree.splitCount());
    }
}
BENCHMARK(BM_TreeTrain2000x42)->Arg(1)->Arg(5);

void
BM_BoostTrain500x42(benchmark::State &state)
{
    // GBRT training cost at modeler scale: 42 features, a few hundred
    // rows per band, a couple hundred trees (Table 3 "modeling").
    ml::DataSet data(42);
    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        std::vector<double> x(42);
        for (double &v : x)
            v = rng.uniform();
        data.addRow(x, x[0] * 10.0 + x[1] * x[2] + x[3]);
    }
    ml::BoostParams bp;
    bp.maxTrees = 200;
    bp.convergencePatience = 0;
    bp.targetErrorPct = 0.0;
    for (auto _ : state) {
        ml::GradientBoost boost(bp);
        boost.train(data);
        benchmark::DoNotOptimize(boost.treeCount());
    }
}
BENCHMARK(BM_BoostTrain500x42);

/** A trained HM at modeler scale, shared by the prediction rows (the
 *  collect+train setup dominates each bench body otherwise). */
struct TrainedModel
{
    core::ModelReport report;
    std::unique_ptr<const ml::FlatEnsemble> flat;
    std::vector<double> features;
};

const TrainedModel &
trainedModel()
{
    static const TrainedModel tm = [] {
        const auto &w = workloads::Registry::instance().byAbbrev("TS");
        core::Collector collector(simulator(), w);
        const auto data =
            collector.collectAtSizes({20.0, 35.0, 50.0}, 60, 7);
        ml::HmParams hm;
        hm.firstOrder.maxTrees = 300;
        TrainedModel out{core::buildAndValidate(core::ModelKind::HM,
                                                data.vectors, hm, true,
                                                5),
                         nullptr,
                         {}};
        out.flat = out.report.model->compile();
        out.features = core::toFeatures(
            conf::Configuration(conf::ConfigSpace::spark()),
            w.bytesForSize(50.0), true);
        return out;
    }();
    return tm;
}

void
BM_ModelPredict(benchmark::State &state)
{
    // The paper's point: a model query is ~ms vs minutes per real run.
    const TrainedModel &tm = trainedModel();
    for (auto _ : state)
        benchmark::DoNotOptimize(tm.report.model->predict(tm.features));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelPredict);

void
BM_ModelPredictCompiled(benchmark::State &state)
{
    // The same query through the compiled ensemble (the GA's path).
    const TrainedModel &tm = trainedModel();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            tm.flat->predict(tm.features.data(), tm.features.size()));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelPredictCompiled);

/** The same compiled query through the serial reference walk
 *  (BM_ModelPredictKernel/serial) or the blocked walk (/scalar). */
void
BM_ModelPredictKernel(benchmark::State &state, bool serial)
{
    const TrainedModel &tm = trainedModel();
    const double *x = tm.features.data();
    const size_t n = tm.features.size();
    for (auto _ : state) {
        benchmark::DoNotOptimize(serial ? tm.flat->predictSerial(x, n)
                                        : tm.flat->predict(x, n));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_ModelPredictKernel, serial, true);
BENCHMARK_CAPTURE(BM_ModelPredictKernel, scalar, false);

void
BM_GaGeneration(benchmark::State &state)
{
    auto objective = [](const std::vector<double> &x) {
        double s = 0.0;
        for (double v : x)
            s += (v - 0.5) * (v - 0.5);
        return s;
    };
    for (auto _ : state) {
        ga::GaParams p;
        p.maxGenerations = 10;
        p.convergencePatience = 0;
        ga::GeneticAlgorithm ga(p);
        benchmark::DoNotOptimize(ga.minimize(objective, 41).bestFitness);
    }
}
BENCHMARK(BM_GaGeneration);

void
BM_RngUniform(benchmark::State &state)
{
    // One engine draw and its canonical conversion: the unit of the
    // GA's per-gene breeding cost and of the simulator's noise.
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.uniform());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngUniform);

void
BM_RngBernoulli(benchmark::State &state)
{
    // The GA's per-gene coin (crossover pick, mutation trial).
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.bernoulli(0.5));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngBernoulli);

/** A compiled HM at the serving stack's tuning scale (m=5 training
 *  sizes, k=16 runs each, nt=80 first-order trees) and the search's
 *  training-set seeds, as TuningService::process builds them. */
struct ServingModel
{
    core::ModelReport report;
    std::unique_ptr<const ml::FlatEnsemble> flat;
    std::vector<conf::Configuration> seeds;
    double dsizeBytes = 0.0;
};

const ServingModel &
servingModel()
{
    static const ServingModel sm = [] {
        const auto &w = workloads::Registry::instance().byAbbrev("TS");
        core::Collector collector(simulator(), w);
        const auto data = collector.collectAtSizes(
            {25.6, 32.0, 40.0, 50.0, 62.5}, 16, 7);
        ml::HmParams hm;
        hm.firstOrder.maxTrees = 80;
        ServingModel out{core::buildAndValidate(core::ModelKind::HM,
                                                data.vectors, hm, true,
                                                5),
                         nullptr,
                         {},
                         w.bytesForSize(40.0)};
        out.flat = out.report.model->compile();
        Rng rng(11);
        for (size_t i = 0; i < 25; ++i) {
            out.seeds.emplace_back(
                conf::ConfigSpace::spark(),
                data.vectors[rng.index(data.vectors.size())].config);
        }
        return out;
    }();
    return sm;
}

void
BM_SearchServingScale(benchmark::State &state)
{
    // One warm search as the service runs it: 30 generations of 50
    // through the compiled model, serial. The layer the stack
    // benchmark's dac.search_ms measures; items/s counts searches.
    const ServingModel &sm = servingModel();
    core::Searcher searcher(*sm.report.model, conf::ConfigSpace::spark(),
                            true);
    searcher.setCompiled(sm.flat.get());
    ga::GaParams params;
    params.maxGenerations = 30;
    params.populationSize = 50;
    params.seed = 3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            searcher.search(sm.dsizeBytes, params, sm.seeds)
                .predictedTimeSec);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SearchServingScale)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
