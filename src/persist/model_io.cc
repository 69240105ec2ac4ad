#include "persist/model_io.h"

#include <string>
#include <utility>
#include <vector>

#include "ml/boosting.h"
#include "ml/hm.h"
#include "ml/log_target.h"
#include "ml/regression_tree.h"

namespace dac::persist {
namespace {

// Concrete model kind tags. Appending a kind is a compatible change;
// renumbering is not (bump the snapshot format version instead).
constexpr uint8_t kTagTree = 1;
constexpr uint8_t kTagGbrt = 2;
constexpr uint8_t kTagHm = 3;
constexpr uint8_t kTagLogTarget = 4;

// Feature indices beyond this are rejected as corrupt: the widest
// space in the repo (Spark's 41 params + dsize) is two orders of
// magnitude smaller, and the bound keeps a hostile snapshot from
// driving predict-time x[feature] reads arbitrarily far.
constexpr int32_t kMaxFeatureIndex = 1 << 20;

[[noreturn]] void
corrupt(const std::string &what)
{
    throw DecodeError(what);
}

void
writeBoostParams(ByteWriter &w, const ml::BoostParams &p)
{
    w.i32(p.maxTrees);
    w.f64(p.learningRate);
    w.i32(p.treeComplexity);
    w.f64(p.targetErrorPct);
    w.i32(p.convergencePatience);
    w.f64(p.validationFraction);
    w.u64(p.seed);
    w.u8(p.targetIsLog ? 1 : 0);
}

ml::BoostParams
readBoostParams(ByteReader &r)
{
    ml::BoostParams p;
    p.maxTrees = r.i32();
    p.learningRate = r.f64();
    p.treeComplexity = r.i32();
    p.targetErrorPct = r.f64();
    p.convergencePatience = r.i32();
    p.validationFraction = r.f64();
    p.seed = r.u64();
    p.targetIsLog = r.u8() != 0;
    // The ml constructors assert these ranges; reject them here so a
    // checksum-valid but out-of-range image is Corrupt instead of an
    // assertion escaping decodeSnapshot.
    if (p.maxTrees < 1)
        corrupt("boost maxTrees below 1");
    if (!(p.learningRate > 0.0 && p.learningRate <= 1.0))
        corrupt("boost learning rate outside (0, 1]");
    if (p.treeComplexity < 1)
        corrupt("boost tree complexity below 1");
    return p;
}

void
writeTreeParams(ByteWriter &w, const ml::TreeParams &p)
{
    w.i32(p.treeComplexity);
    w.i32(p.minSamplesLeaf);
    w.i32(p.histogramBins);
    w.i32(p.featureSubset);
    w.u64(p.seed);
}

ml::TreeParams
readTreeParams(ByteReader &r)
{
    ml::TreeParams p;
    p.treeComplexity = r.i32();
    p.minSamplesLeaf = r.i32();
    p.histogramBins = r.i32();
    p.featureSubset = r.i32();
    p.seed = r.u64();
    if (p.treeComplexity < 1)
        corrupt("tree complexity below 1");
    if (p.histogramBins < 2)
        corrupt("tree histogram bins below 2");
    return p;
}

void
writeHmParams(ByteWriter &w, const ml::HmParams &p)
{
    writeBoostParams(w, p.firstOrder);
    w.f64(p.targetErrorPct);
    w.i32(p.maxOrder);
    w.f64(p.validationFraction);
    w.u64(p.seed);
    w.u8(p.targetIsLog ? 1 : 0);
    // p.cancel is a borrowed runtime handle; a reloaded model is done
    // training, so it deliberately does not round-trip.
}

ml::HmParams
readHmParams(ByteReader &r)
{
    ml::HmParams p;
    p.firstOrder = readBoostParams(r);
    p.targetErrorPct = r.f64();
    p.maxOrder = r.i32();
    p.validationFraction = r.f64();
    p.seed = r.u64();
    p.targetIsLog = r.u8() != 0;
    p.cancel = nullptr;
    if (p.maxOrder < 1)
        corrupt("HM maxOrder below 1");
    return p;
}

} // namespace

void
ModelIo::writeTreeBody(ByteWriter &w, const ml::RegressionTree &tree)
{
    writeTreeParams(w, tree.params);
    w.u32(static_cast<uint32_t>(tree.nodes.size()));
    for (const auto &n : tree.nodes) {
        w.i32(n.feature);
        w.f64(n.threshold);
        w.f64(n.value);
        w.i32(n.left);
        w.i32(n.right);
    }
}

ml::RegressionTree
ModelIo::readTreeBody(ByteReader &r)
{
    ml::RegressionTree tree(readTreeParams(r));
    const uint32_t nodeCount = r.count(28, "tree node");
    if (nodeCount == 0)
        corrupt("tree with zero nodes");
    tree.nodes.reserve(nodeCount);
    // TreeBuilder appends a split's two children right after linking
    // them, so every node but the root is the child of exactly one
    // split. A shared child would make compile() copy its subtree once
    // per path to it (exponential in a DAG); an orphan is dead weight.
    // Links point forward, so a node is fully linked when reached.
    const char *notATree = "tree node is not the child of exactly one split";
    std::vector<uint8_t> linked(nodeCount, 0);
    for (uint32_t i = 0; i < nodeCount; ++i) {
        if (i > 0 && linked[i] == 0)
            corrupt(notATree);
        ml::RegressionTree::Node n;
        n.feature = r.i32();
        n.threshold = r.f64();
        n.value = r.f64();
        n.left = r.i32();
        n.right = r.i32();
        if (n.feature >= 0) {
            // Split links must point forward (the builder appends
            // children after their parent), which both bounds the
            // predict walk and rules out cycles.
            if (n.feature >= kMaxFeatureIndex)
                corrupt("tree split feature out of range");
            if (n.left <= static_cast<int>(i) ||
                n.right <= static_cast<int>(i) ||
                n.left >= static_cast<int>(nodeCount) ||
                n.right >= static_cast<int>(nodeCount)) {
                corrupt("tree split links out of range");
            }
            for (const int child : {n.left, n.right}) {
                if (linked[static_cast<size_t>(child)] != 0)
                    corrupt(notATree);
                linked[static_cast<size_t>(child)] = 1;
            }
        } else if (n.left != -1 || n.right != -1) {
            corrupt("tree leaf with child links");
        }
        tree.nodes.push_back(n);
    }
    return tree;
}

void
ModelIo::writeGbrtBody(ByteWriter &w, const ml::GradientBoost &model)
{
    writeBoostParams(w, model.params);
    w.f64(model.baseline);
    w.f64(model._validationError);
    w.u8(model._metTarget ? 1 : 0);
    w.u32(static_cast<uint32_t>(model._validationHistory.size()));
    for (double v : model._validationHistory)
        w.f64(v);
    w.u32(static_cast<uint32_t>(model.trees.size()));
    for (const auto &tree : model.trees)
        writeTreeBody(w, tree);
}

std::unique_ptr<ml::GradientBoost>
ModelIo::readGbrtBody(ByteReader &r)
{
    auto model = std::make_unique<ml::GradientBoost>(readBoostParams(r));
    model->baseline = r.f64();
    model->_validationError = r.f64();
    model->_metTarget = r.u8() != 0;
    const uint32_t historyLen = r.count(8, "validation history");
    model->_validationHistory.reserve(historyLen);
    for (uint32_t i = 0; i < historyLen; ++i)
        model->_validationHistory.push_back(r.f64());
    const uint32_t treeCount = r.count(56, "boosted tree");
    if (treeCount == 0)
        corrupt("boosted model with zero trees");
    model->trees.reserve(treeCount);
    for (uint32_t i = 0; i < treeCount; ++i)
        model->trees.push_back(readTreeBody(r));
    return model;
}

void
ModelIo::writeHmBody(ByteWriter &w, const ml::HierarchicalModel &model)
{
    writeHmParams(w, model.params);
    w.i32(model._order);
    w.f64(model._validationError);
    w.u32(static_cast<uint32_t>(model.members.size()));
    for (const auto &member : model.members) {
        w.f64(member.weight);
        writeGbrtBody(w, *member.model);
    }
}

std::unique_ptr<ml::HierarchicalModel>
ModelIo::readHmBody(ByteReader &r)
{
    auto model = std::make_unique<ml::HierarchicalModel>(readHmParams(r));
    model->_order = r.i32();
    model->_validationError = r.f64();
    const uint32_t memberCount = r.count(64, "HM member");
    if (memberCount == 0)
        corrupt("HM with zero members");
    model->members.reserve(memberCount);
    for (uint32_t i = 0; i < memberCount; ++i) {
        ml::HierarchicalModel::Member member;
        member.weight = r.f64();
        member.model = readGbrtBody(r);
        model->members.push_back(std::move(member));
    }
    return model;
}

void
ModelIo::writeModel(ByteWriter &w, const ml::Model &model)
{
    if (const auto *log = dynamic_cast<const ml::LogTargetModel *>(&model)) {
        w.u8(kTagLogTarget);
        writeModel(w, *log->inner);
        return;
    }
    if (const auto *hm =
            dynamic_cast<const ml::HierarchicalModel *>(&model)) {
        w.u8(kTagHm);
        writeHmBody(w, *hm);
        return;
    }
    if (const auto *gbrt = dynamic_cast<const ml::GradientBoost *>(&model)) {
        w.u8(kTagGbrt);
        writeGbrtBody(w, *gbrt);
        return;
    }
    if (const auto *tree =
            dynamic_cast<const ml::RegressionTree *>(&model)) {
        w.u8(kTagTree);
        writeTreeBody(w, *tree);
        return;
    }
    throw DecodeError(SnapshotError::UnsupportedModel,
                      "cannot serialize model kind " + model.name());
}

std::unique_ptr<ml::Model>
ModelIo::readModel(ByteReader &r)
{
    uint8_t tag = r.u8();
    const bool logTarget = tag == kTagLogTarget;
    if (logTarget)
        tag = r.u8();
    std::unique_ptr<ml::Model> model;
    switch (tag) {
      case kTagTree:
        model = std::make_unique<ml::RegressionTree>(readTreeBody(r));
        break;
      case kTagGbrt:
        model = readGbrtBody(r);
        break;
      case kTagHm:
        model = readHmBody(r);
        break;
      case kTagLogTarget:
        // compile() folds exactly one exp() into the ensemble.
        corrupt("log-target wrapping a log-target");
      default:
        throw DecodeError(SnapshotError::UnsupportedModel,
                          "unknown model tag " + std::to_string(tag));
    }
    if (logTarget)
        model = std::make_unique<ml::LogTargetModel>(std::move(model));
    return model;
}

} // namespace dac::persist
