#include "dac/modeler.h"

#include <chrono>

#include "ml/log_target.h"
#include "ml/mlp.h"
#include "ml/random_forest.h"
#include "ml/response_surface.h"
#include "ml/svr.h"
#include "obs/metrics.h"
#include "obs/tracer.h"
#include "support/logging.h"

namespace dac::core {

std::string
modelKindName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::RS: return "RS";
      case ModelKind::ANN: return "ANN";
      case ModelKind::SVM: return "SVM";
      case ModelKind::RF: return "RF";
      case ModelKind::HM: return "HM";
    }
    return "?";
}

const std::vector<ModelKind> &
allModelKinds()
{
    static const std::vector<ModelKind> kinds{
        ModelKind::RS, ModelKind::ANN, ModelKind::SVM, ModelKind::RF,
        ModelKind::HM};
    return kinds;
}

std::unique_ptr<ml::Model>
makeModel(ModelKind kind, const ml::HmParams &hm, uint64_t seed)
{
    // Every technique regresses on log(t): simulated times span three
    // orders of magnitude and Eq. 2 is a relative error. Applied
    // uniformly so the Figure 3/9 comparison stays fair (DESIGN.md).
    std::unique_ptr<ml::Model> inner;
    switch (kind) {
      case ModelKind::RS:
        inner = std::make_unique<ml::ResponseSurface>();
        break;
      case ModelKind::ANN: {
        ml::MlpParams p;
        p.seed = seed;
        inner = std::make_unique<ml::Mlp>(p);
        break;
      }
      case ModelKind::SVM:
        inner = std::make_unique<ml::Svr>();
        break;
      case ModelKind::RF: {
        ml::ForestParams p;
        p.seed = seed;
        inner = std::make_unique<ml::RandomForest>(p);
        break;
      }
      case ModelKind::HM: {
        ml::HmParams p = hm;
        p.seed = seed;
        p.targetIsLog = true;
        inner = std::make_unique<ml::HierarchicalModel>(p);
        break;
      }
    }
    DAC_ASSERT(inner != nullptr, "unknown model kind");
    return std::make_unique<ml::LogTargetModel>(std::move(inner));
}

ModelReport
buildAndValidate(ModelKind kind, const std::vector<PerfVector> &vectors,
                 const ml::HmParams &hm, bool include_dsize, uint64_t seed)
{
    DAC_ASSERT(vectors.size() >= 8, "too few vectors to model");
    const ml::DataSet all = toDataSet(vectors, include_dsize);

    // Hold out a quarter for cross-validation (Section 3.2: num =
    // ntrain / 4, collected separately from S; here drawn from the
    // same campaign).
    Rng rng(combineSeed(seed, 0x5EED));
    auto parts = all.split(0.25, rng);
    const ml::DataSet &train = parts.first;
    const ml::DataSet &test = parts.second;

    ModelReport report;
    report.model = makeModel(kind, hm, seed);

    obs::ScopedSpan trainSpan("model.train");
    if (trainSpan.active()) {
        trainSpan.attr("kind", modelKindName(kind));
        trainSpan.attr("train_rows", static_cast<uint64_t>(train.size()));
        trainSpan.attr("test_rows", static_cast<uint64_t>(test.size()));
    }
    const auto t0 = std::chrono::steady_clock::now();
    report.model->train(train);
    const auto t1 = std::chrono::steady_clock::now();
    report.trainWallSec = std::chrono::duration<double>(t1 - t0).count();
    report.testErrorPct = report.model->errorOn(test);
    if (trainSpan.active()) {
        trainSpan.attr("train_wall_sec", report.trainWallSec);
        trainSpan.attr("test_error_pct", report.testErrorPct);
    }
    static obs::Counter &trained =
        obs::globalMetrics().counter("model.trained");
    static obs::Histogram &trainSec =
        obs::globalMetrics().histogram("model.train_sec");
    trained.increment();
    trainSec.observe(report.trainWallSec);
    return report;
}

} // namespace dac::core
