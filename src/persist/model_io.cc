#include "persist/model_io.h"

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "ml/boosting.h"
#include "ml/flat_ensemble.h"
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
    throw DecodeError(SnapshotError::Corrupt, what);
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
    return p;
}

void
writeI32Array(ByteWriter &w, const std::vector<int32_t> &values)
{
    for (int32_t v : values)
        w.i32(v);
}

void
writeF64Array(ByteWriter &w, const std::vector<double> &values)
{
    for (double v : values)
        w.f64(v);
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
    for (uint32_t i = 0; i < nodeCount; ++i) {
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
ModelIo::readModelTagged(ByteReader &r, int depth)
{
    if (depth > kMaxWrapDepth)
        corrupt("model wrapper nesting too deep");
    const uint8_t tag = r.u8();
    switch (tag) {
      case kTagTree:
        return std::make_unique<ml::RegressionTree>(readTreeBody(r));
      case kTagGbrt:
        return readGbrtBody(r);
      case kTagHm:
        return readHmBody(r);
      case kTagLogTarget:
        return std::make_unique<ml::LogTargetModel>(
            readModelTagged(r, depth + 1));
      default:
        throw DecodeError(SnapshotError::UnsupportedModel,
                          "unknown model tag " + std::to_string(tag));
    }
}

std::unique_ptr<ml::Model>
ModelIo::readModel(ByteReader &r)
{
    return readModelTagged(r, 0);
}

/**
 * Load-time proof that every index the assert-free predict walk will
 * dereference stays in bounds and that every fixed-step walk
 * terminates on a self-looping leaf. CRC failures catch accidents;
 * this catches everything else.
 */
void
ModelIo::validateFlat(const ml::FlatEnsemble &flat)
{
    using Flat = ml::FlatEnsemble;
    const size_t treeTotal = flat.roots.size();
    const size_t nodeTotal = flat.feature.size();

    if (flat.members.empty() || treeTotal == 0 || nodeTotal == 0)
        corrupt("flat ensemble with no members");
    if (flat.minFeatures == 0 ||
        flat.minFeatures > static_cast<size_t>(kMaxFeatureIndex))
        corrupt("flat ensemble feature width out of range");
    if (flat.threshold.size() != nodeTotal ||
        flat.leftChild.size() != nodeTotal ||
        flat.leafValue.size() != nodeTotal) {
        corrupt("flat ensemble node arrays disagree on length");
    }
    if (flat.depths.size() != treeTotal || flat.slotOf.size() != treeTotal)
        corrupt("flat ensemble tree arrays disagree on length");

    for (const auto &m : flat.members) {
        if (m.treeCount == 0 ||
            static_cast<size_t>(m.firstTree) + m.treeCount > treeTotal ||
            static_cast<size_t>(m.firstSegment) + m.segmentCount >
                flat.segments.size()) {
            corrupt("flat member ranges out of bounds");
        }
    }
    for (const auto &s : flat.segments) {
        if (s.treeCount == 0 || s.treeCount > Flat::kSegmentTrees ||
            static_cast<size_t>(s.firstTree) + s.treeCount > treeTotal ||
            static_cast<size_t>(s.firstBlock) + s.blockCount >
                flat.blocks.size()) {
            corrupt("flat segment ranges out of bounds");
        }
        for (uint32_t j = 0; j < s.treeCount; ++j) {
            const int32_t slot = flat.slotOf[s.firstTree + j];
            if (slot < 0 || static_cast<uint32_t>(slot) >= s.treeCount)
                corrupt("flat slotOf outside its segment");
        }
    }
    for (const auto &b : flat.blocks) {
        if (b.treeCount == 0 || b.treeCount > 8 ||
            static_cast<size_t>(b.firstTree) + b.treeCount > treeTotal ||
            b.steps < 0 || static_cast<size_t>(b.steps) > nodeTotal) {
            corrupt("flat block ranges out of bounds");
        }
    }
    for (size_t i = 0; i < treeTotal; ++i) {
        if (flat.roots[i] < 0 ||
            static_cast<size_t>(flat.roots[i]) >= nodeTotal)
            corrupt("flat tree root out of bounds");
        if (flat.depths[i] < 0 ||
            static_cast<size_t>(flat.depths[i]) > nodeTotal)
            corrupt("flat tree depth out of bounds");
    }
    for (size_t i = 0; i < nodeTotal; ++i) {
        const int32_t left = flat.leftChild[i];
        if (flat.feature[i] < 0 ||
            static_cast<size_t>(flat.feature[i]) >= flat.minFeatures)
            corrupt("flat node feature out of range");
        if (std::isnan(flat.threshold[i])) {
            // Self-looping leaf: the step always takes left + 1 = i.
            if (left != static_cast<int32_t>(i) - 1)
                corrupt("flat leaf does not self-loop");
        } else {
            // Split: children adjacent, strictly forward (the BFS
            // renumbering appends children after their parent), so
            // any finite step count lands on a leaf without cycling.
            if (left <= static_cast<int32_t>(i) ||
                static_cast<size_t>(left) + 1 >= nodeTotal) {
                corrupt("flat split children out of bounds");
            }
        }
    }
}

void
ModelIo::writeFlat(ByteWriter &w, const ml::FlatEnsemble &flat)
{
    w.u64(static_cast<uint64_t>(flat.minFeatures));
    w.u8(flat.applyExp ? 1 : 0);

    w.u32(static_cast<uint32_t>(flat.members.size()));
    for (const auto &m : flat.members) {
        w.f64(m.weight);
        w.f64(m.baseline);
        w.u32(m.firstTree);
        w.u32(m.treeCount);
        w.u32(m.firstSegment);
        w.u32(m.segmentCount);
    }
    w.u32(static_cast<uint32_t>(flat.segments.size()));
    for (const auto &s : flat.segments) {
        w.u32(s.firstTree);
        w.u32(s.treeCount);
        w.u32(s.firstBlock);
        w.u32(s.blockCount);
    }
    w.u32(static_cast<uint32_t>(flat.blocks.size()));
    for (const auto &b : flat.blocks) {
        w.u32(b.firstTree);
        w.u32(b.treeCount);
        w.i32(b.steps);
    }
    w.u32(static_cast<uint32_t>(flat.roots.size()));
    writeI32Array(w, flat.roots);
    writeI32Array(w, flat.depths);
    writeI32Array(w, flat.slotOf);
    w.u32(static_cast<uint32_t>(flat.feature.size()));
    writeI32Array(w, flat.feature);
    writeF64Array(w, flat.threshold);
    writeI32Array(w, flat.leftChild);
    writeF64Array(w, flat.leafValue);
    // `packed` is a pure re-interleaving of (feature, leftChild,
    // threshold); it is rebuilt on load, never stored.
}

std::unique_ptr<ml::FlatEnsemble>
ModelIo::readFlat(ByteReader &r)
{
    using Flat = ml::FlatEnsemble;
    std::unique_ptr<Flat> flat(new Flat());

    flat->minFeatures = static_cast<size_t>(r.u64());
    flat->applyExp = r.u8() != 0;

    const uint32_t memberCount = r.count(40, "flat member");
    flat->members.reserve(memberCount);
    for (uint32_t i = 0; i < memberCount; ++i) {
        Flat::Member m;
        m.weight = r.f64();
        m.baseline = r.f64();
        m.firstTree = r.u32();
        m.treeCount = r.u32();
        m.firstSegment = r.u32();
        m.segmentCount = r.u32();
        flat->members.push_back(m);
    }
    const uint32_t segmentCount = r.count(16, "flat segment");
    flat->segments.reserve(segmentCount);
    for (uint32_t i = 0; i < segmentCount; ++i) {
        Flat::Segment s;
        s.firstTree = r.u32();
        s.treeCount = r.u32();
        s.firstBlock = r.u32();
        s.blockCount = r.u32();
        flat->segments.push_back(s);
    }
    const uint32_t blockCount = r.count(12, "flat block");
    flat->blocks.reserve(blockCount);
    for (uint32_t i = 0; i < blockCount; ++i) {
        Flat::Block b;
        b.firstTree = r.u32();
        b.treeCount = r.u32();
        b.steps = r.i32();
        flat->blocks.push_back(b);
    }
    const uint32_t treeCount = r.count(12, "flat tree");
    flat->roots.reserve(treeCount);
    for (uint32_t i = 0; i < treeCount; ++i)
        flat->roots.push_back(r.i32());
    flat->depths.reserve(treeCount);
    for (uint32_t i = 0; i < treeCount; ++i)
        flat->depths.push_back(r.i32());
    flat->slotOf.reserve(treeCount);
    for (uint32_t i = 0; i < treeCount; ++i)
        flat->slotOf.push_back(r.i32());

    const uint32_t nodeCount = r.count(24, "flat node");
    flat->feature.reserve(nodeCount);
    for (uint32_t i = 0; i < nodeCount; ++i)
        flat->feature.push_back(r.i32());
    flat->threshold.reserve(nodeCount);
    for (uint32_t i = 0; i < nodeCount; ++i)
        flat->threshold.push_back(r.f64());
    flat->leftChild.reserve(nodeCount);
    for (uint32_t i = 0; i < nodeCount; ++i)
        flat->leftChild.push_back(r.i32());
    flat->leafValue.reserve(nodeCount);
    for (uint32_t i = 0; i < nodeCount; ++i)
        flat->leafValue.push_back(r.f64());

    validateFlat(*flat);

    flat->packed.reserve(nodeCount);
    for (uint32_t i = 0; i < nodeCount; ++i) {
        flat->packed.push_back(Flat::PackedNode{
            flat->feature[i], flat->leftChild[i], flat->threshold[i]});
    }
    return flat;
}

void
ModelIo::writeScaler(ByteWriter &w, const ml::Scaler &scaler)
{
    w.u32(static_cast<uint32_t>(scaler.means.size()));
    writeF64Array(w, scaler.means);
    writeF64Array(w, scaler.stds);
}

ml::Scaler
ModelIo::readScaler(ByteReader &r)
{
    ml::Scaler scaler;
    const uint32_t n = r.count(16, "scaler feature");
    scaler.means.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        scaler.means.push_back(r.f64());
    scaler.stds.reserve(n);
    for (uint32_t i = 0; i < n; ++i)
        scaler.stds.push_back(r.f64());
    return scaler;
}

void
ModelIo::writeTargetScaler(ByteWriter &w, const ml::TargetScaler &scaler)
{
    w.f64(scaler.mean);
    w.f64(scaler.std);
}

ml::TargetScaler
ModelIo::readTargetScaler(ByteReader &r)
{
    ml::TargetScaler scaler;
    scaler.mean = r.f64();
    scaler.std = r.f64();
    return scaler;
}

} // namespace dac::persist
