#include "stack.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>

#include "conf/constraints.h"
#include "conf/expert.h"
#include "dac/collector.h"
#include "dac/evaluation.h"
#include "dac/modeler.h"
#include "dac/searcher.h"
#include "net/protocol.h"
#include "stats.h"
#include "support/random.h"
#include "support/statistics.h"
#include "workloads/registry.h"

namespace stackbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

/** Simulator repetitions and seed for the quality evaluation: fixed,
 *  so one answer always scores the same simulated time. */
constexpr int kQualityRuns = 3;
constexpr uint64_t kQualitySeed = 20180324;

/** Rows per prediction probe: one GA generation. */
constexpr size_t kProbeRows = 50;

// The two helpers below mirror TuningService::buildModel's private
// derivations of a model key's training inputs. The replay's
// bit-identical model-error and answer checks fail if they drift.

/** TuningService's platform-stable key hash. */
uint64_t
serviceKeyHash(const std::string &text)
{
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const char c : text)
        h = dac::splitmix64(
            h ^ static_cast<uint64_t>(static_cast<unsigned char>(c)));
    return h;
}

/** TuningService's m training sizes for one datasize band. */
std::vector<double>
bandTrainingSizes(int band, size_t m)
{
    const double lo = 0.8 * std::ldexp(1.0, band);
    const double hi = 1.25 * std::ldexp(1.0, band + 1);
    if (m == 1)
        return {std::sqrt(lo * hi)};
    const double ratio =
        std::max(std::pow(hi / lo, 1.0 / static_cast<double>(m - 1)),
                 1.12);
    std::vector<double> sizes;
    double size = lo;
    for (size_t i = 0; i < m; ++i, size *= ratio)
        sizes.push_back(size);
    return sizes;
}

/** The collection campaign the service runs for `request`'s key. */
struct CollectPlan
{
    const dac::workloads::Workload *workload = nullptr;
    std::vector<double> sizes;
    dac::core::CollectOptions options;
};

CollectPlan
collectPlanFor(const dac::sparksim::SparkSimulator &sim,
               const dac::service::TuneRequest &request)
{
    const auto options = benchServiceOptions();
    CollectPlan plan;
    plan.workload =
        &dac::workloads::Registry::instance().byAbbrev(request.workload);
    const dac::service::ModelKey key{
        plan.workload->abbrev(), sim.clusterSpec().signature(),
        dac::service::sizeBandOf(request.nativeSize)};
    plan.options = options.tuning.collect;
    plan.options.seed = dac::combineSeed(options.tuning.seed,
                                         serviceKeyHash(key.toString()));
    plan.sizes = bandTrainingSizes(key.sizeBand, plan.options.datasetCount);
    return plan;
}

dac::core::CollectResult
runCollect(const dac::sparksim::SparkSimulator &sim, const CollectPlan &plan,
           dac::Executor *executor)
{
    const dac::core::Collector collector(sim, *plan.workload);
    return collector.collectAtSizes(plan.sizes, plan.options.runsPerDataset,
                                    plan.options.seed,
                                    plan.options.sampling, executor);
}

std::string
readFirstLine(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

} // namespace

double
secondsSince(Clock::time_point since)
{
    return std::chrono::duration<double>(Clock::now() - since).count();
}

Clock::time_point
processStart()
{
    return kProcessStart;
}

size_t
poolWorkers()
{
    const long cores = sysconf(_SC_NPROCESSORS_ONLN);
    return cores > 2 ? static_cast<size_t>(cores - 2) : 1;
}

dac::service::ServiceOptions
benchServiceOptions()
{
    dac::service::ServiceOptions options;
    options.threads = poolWorkers();
    options.tuning.collect.datasetCount = 5;
    options.tuning.collect.runsPerDataset = 16;
    options.tuning.hm.firstOrder.maxTrees = 80;
    options.tuning.ga.maxGenerations = 30;
    options.tuning.ga.populationSize = 50;
    return options;
}

namespace {

dac::net::ServerOptions
serverOptions(dac::obs::MetricsRegistry *metrics)
{
    dac::net::ServerOptions options;
    options.metrics = metrics;
    return options;
}

} // namespace

Stack::Stack(bool with_bare_server)
    : sim(dac::cluster::ClusterSpec::paperTestbed()),
      service(sim, benchServiceOptions()),
      server(service, serverOptions(&service.metrics()))
{
    dac::conf::validateOrDie(
        dac::conf::Configuration(dac::conf::ConfigSpace::spark()),
        dac::cluster::ClusterSpec::paperTestbed(), "stackbench startup");
    server.setStatsProvider([this](dac::net::StatsFormat format) {
        service.refreshGauges();
        return format == dac::net::StatsFormat::Prometheus
                   ? service.metrics().renderPrometheus()
                   : service.metrics().renderJson();
    });
    server.start();
    if (with_bare_server) {
        bare = std::make_unique<dac::net::TuningServer>(
            service, serverOptions(nullptr));
        bare->start();
    }
}

std::string
answerProblem(const dac::service::TuneResponse &response)
{
    if (response.degraded)
        return "degraded answer (" + response.degradedReason + ")";
    const auto &space = dac::conf::ConfigSpace::spark();
    const auto &values = response.best.values();
    if (values.size() != space.size())
        return "configuration has " + std::to_string(values.size()) +
               " values, the Spark space " + std::to_string(space.size());
    for (size_t i = 0; i < values.size(); ++i) {
        if (!std::isfinite(values[i]) ||
            space.param(i).snap(values[i]) != values[i])
            return space.param(i).name() + " outside the Spark space";
    }
    if (!std::isfinite(response.predictedTimeSec) ||
        response.predictedTimeSec <= 0.0)
        return "predicted time is not a positive number";
    return "";
}

std::string
answerDifference(const dac::service::TuneResponse &a,
                 const dac::service::TuneResponse &b)
{
    const auto same = [](double x, double y) {
        return std::bit_cast<uint64_t>(x) == std::bit_cast<uint64_t>(y);
    };
    if (a.workload != b.workload || !same(a.nativeSize, b.nativeSize))
        return "answers are for different requests";
    const auto &va = a.best.values();
    const auto &vb = b.best.values();
    if (va.size() != vb.size())
        return "configurations differ in length";
    for (size_t i = 0; i < va.size(); ++i) {
        if (!same(va[i], vb[i]))
            return "configuration value " + std::to_string(i) + " differs";
    }
    if (!same(a.predictedTimeSec, b.predictedTimeSec))
        return "predicted time differs";
    if (!same(a.modelErrorPct, b.modelErrorPct))
        return "model error differs";
    if (a.degraded != b.degraded || a.degradedReason != b.degradedReason)
        return "degradation differs";
    if (a.warnings.size() != b.warnings.size())
        return "warning count differs";
    for (size_t i = 0; i < a.warnings.size(); ++i) {
        if (a.warnings[i].constraint != b.warnings[i].constraint ||
            a.warnings[i].message != b.warnings[i].message)
            return "warning " + std::to_string(i) + " differs";
    }
    return "";
}

Quality
evaluateQuality(const dac::sparksim::SparkSimulator &sim,
                const std::vector<dac::service::TuneResponse> &answers)
{
    if (answers.empty())
        return {};
    const auto expert = dac::conf::expertSparkConfig(sim.clusterSpec());
    std::map<std::pair<std::string, double>, double> expertSec;
    std::vector<double> speedups;
    std::vector<double> errors;
    for (const auto &answer : answers) {
        const auto &workload =
            dac::workloads::Registry::instance().byAbbrev(answer.workload);
        auto [it, fresh] =
            expertSec.try_emplace({answer.workload, answer.nativeSize}, 0.0);
        if (fresh) {
            it->second = dac::core::measureTime(sim, workload,
                                                answer.nativeSize, expert,
                                                kQualityRuns, kQualitySeed);
        }
        const double answerSec =
            dac::core::measureTime(sim, workload, answer.nativeSize,
                                   answer.best, kQualityRuns, kQualitySeed);
        speedups.push_back(it->second / answerSec);
        errors.push_back(std::abs(answer.predictedTimeSec - answerSec) /
                         answerSec * 100.0);
    }
    return {dac::geomean(speedups), median(errors), answers.size()};
}

Replay
replayTune(const dac::sparksim::SparkSimulator &sim,
           const dac::service::TuneRequest &request,
           dac::service::ThreadPool &pool)
{
    const auto options = benchServiceOptions();
    const CollectPlan plan = collectPlanFor(sim, request);
    Replay out;
    out.request = request;
    auto task = [&] {
        const auto t0 = Clock::now();
        auto collected = runCollect(sim, plan, &pool);
        const auto t1 = Clock::now();
        auto report = dac::core::buildAndValidate(
            dac::core::ModelKind::HM, collected.vectors, options.tuning.hm,
            true, plan.options.seed);
        const auto t2 = Clock::now();
        out.compiled = std::shared_ptr<const dac::ml::FlatEnsemble>(
            report.model->compile());
        const auto t3 = Clock::now();

        // The search exactly as TuningService::process runs it: GA
        // population seeded from the training set, size pinned.
        const auto &space = dac::conf::ConfigSpace::spark();
        dac::Rng rng(dac::combineSeed(
            request.seed, static_cast<uint64_t>(request.nativeSize)));
        std::vector<dac::conf::Configuration> seeds;
        const size_t want = std::min<size_t>(
            options.tuning.ga.populationSize / 2, collected.vectors.size());
        for (size_t i = 0; i < want; ++i) {
            const auto &pv =
                collected.vectors[rng.index(collected.vectors.size())];
            seeds.emplace_back(space, pv.config);
        }
        dac::core::Searcher searcher(*report.model, space, true);
        searcher.setCompiled(out.compiled.get());
        dac::ga::GaParams params = options.tuning.ga;
        params.seed = dac::combineSeed(
            request.seed,
            static_cast<uint64_t>(request.nativeSize * 1000));
        params.executor = &pool;
        out.dsizeBytes = plan.workload->bytesForSize(request.nativeSize);
        out.search = searcher.search(out.dsizeBytes, params, seeds);
        const auto t4 = Clock::now();

        const auto sec = [](Clock::time_point a, Clock::time_point b) {
            return std::chrono::duration<double>(b - a).count();
        };
        out.collectSec = sec(t0, t1);
        out.trainSec = sec(t1, t2);
        out.compileSec = sec(t2, t3);
        out.searchSec = sec(t3, t4);
        out.runs = collected.vectors.size();
        out.clusterSec = collected.simulatedClusterSec;
        out.trees = out.compiled ? out.compiled->treeCount() : 0;
        out.modelErrorPct = report.testErrorPct;
        out.population = params.populationSize;
        out.vectors = std::move(collected.vectors);
    };
    pool.submit(task).get();
    return out;
}

double
timeCollect(const dac::sparksim::SparkSimulator &sim,
            const dac::service::TuneRequest &request,
            dac::service::ThreadPool *pool)
{
    const CollectPlan plan = collectPlanFor(sim, request);
    const auto start = Clock::now();
    if (pool == nullptr)
        (void)runCollect(sim, plan, nullptr);
    else
        pool->submit([&] { (void)runCollect(sim, plan, pool); }).get();
    return secondsSince(start);
}

double
predictNsPerRow(const Replay &replay, size_t trials, size_t reps)
{
    if (!replay.compiled || replay.vectors.empty())
        return 0.0;
    const size_t width = dac::conf::ConfigSpace::spark().size() + 1;
    std::vector<double> rows(kProbeRows * width);
    for (size_t r = 0; r < kProbeRows; ++r) {
        const auto &config = replay.vectors[r % replay.vectors.size()].config;
        std::copy(config.begin(), config.end(), rows.begin() + r * width);
        rows[r * width + width - 1] = replay.dsizeBytes;
    }
    std::vector<double> out(kProbeRows);
    std::vector<double> nsPerRow;
    double sink = 0.0;
    for (size_t trial = 0; trial < trials; ++trial) {
        const auto start = Clock::now();
        for (size_t rep = 0; rep < reps; ++rep) {
            replay.compiled->predictBatch(rows.data(), width, kProbeRows,
                                          out.data());
            sink += out[rep % kProbeRows];
        }
        nsPerRow.push_back(secondsSince(start) * 1e9 /
                           static_cast<double>(reps * kProbeRows));
    }
    // Keep the predictions observable so the loop is not elided.
    return std::isfinite(sink) ? median(nsPerRow) : 0.0;
}

CpuTimes
readCpuTimes()
{
    std::istringstream line(readFirstLine("/proc/stat"));
    std::string label;
    line >> label;
    CpuTimes times;
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    for (int field = 0; field < 8; ++field) {
        uint64_t value = 0;
        if (!(line >> value))
            break;
        times.total += value;
        if (field == 7)
            times.steal = value;
    }
    return times;
}

double
stealPct(const CpuTimes &from, const CpuTimes &to)
{
    if (to.total <= from.total)
        return 0.0;
    return 100.0 * static_cast<double>(to.steal - from.steal) /
           static_cast<double>(to.total - from.total);
}

std::string
hostContext()
{
    std::string model = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            model = line.substr(line.find(':') + 2);
            break;
        }
    }
    std::istringstream load(readFirstLine("/proc/loadavg"));
    std::string l1, l5, l15;
    load >> l1 >> l5 >> l15;
    std::ostringstream out;
    out << "nproc=" << sysconf(_SC_NPROCESSORS_ONLN)
        << " pool_workers=" << poolWorkers() << " load=" << l1 << ","
        << l5 << "," << l15 << " cpu=\"" << model << "\"";
    return out.str();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

} // namespace stackbench
