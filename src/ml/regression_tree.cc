#include "ml/regression_tree.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "support/logging.h"

namespace dac::ml {

int
TreeBuilder::acquireSlot()
{
    if (!freeSlots.empty()) {
        const int slot = freeSlots.back();
        freeSlots.pop_back();
        rowPool[static_cast<size_t>(slot)].clear();
        return slot;
    }
    ++poolGrowths;
    rowPool.emplace_back();
    return static_cast<int>(rowPool.size()) - 1;
}

void
TreeBuilder::releaseSlot(int slot)
{
    freeSlots.push_back(slot);
}

RegressionTree::Node
TreeBuilder::makeLeaf(const std::vector<size_t> &rows) const
{
    RegressionTree::Node leaf;
    double sum = 0.0;
    for (size_t r : rows)
        sum += rowTarget[r];
    leaf.value = rows.empty() ? 0.0
        : sum / static_cast<double>(rows.size());
    return leaf;
}

void
TreeBuilder::build(RegressionTree &tree, const DataView &data)
{
    params = &tree.params;
    rng = Rng(params->seed);
    featureCount = data.featureCount();

    // Resolve the view once: candidates, leaves and partitions then
    // read rows through plain pointers instead of a remap and a
    // bounds-checked DataSet call per row and pass.
    const size_t n = data.size();
    rowData.resize(n);
    rowTarget.resize(n);
    for (size_t i = 0; i < n; ++i) {
        rowData[i] = data.row(i);
        rowTarget[i] = data.target(i);
    }

    tree.nodes.clear();
    frontier.clear();

    const int all_slot = acquireSlot();
    {
        auto &all = rowPool[static_cast<size_t>(all_slot)];
        all.resize(n);
        for (size_t i = 0; i < all.size(); ++i)
            all[i] = i;
        tree.nodes.push_back(makeLeaf(all));
    }
    pushCandidate(0, all_slot);

    int splits = 0;
    while (splits < params->treeComplexity && !frontier.empty()) {
        std::pop_heap(frontier.begin(), frontier.end());
        const Candidate cand = frontier.back();
        frontier.pop_back();
        if (cand.gain <= 1e-12) {
            releaseSlot(cand.rowsSlot);
            break;
        }

        // Acquire both child slots before touching pool references:
        // acquireSlot() may grow rowPool and relocate its vectors.
        const int left_slot = acquireSlot();
        const int right_slot = acquireSlot();
        auto &left_rows = rowPool[static_cast<size_t>(left_slot)];
        auto &right_rows = rowPool[static_cast<size_t>(right_slot)];
        const size_t feature = static_cast<size_t>(cand.feature);
        for (size_t r : rowPool[static_cast<size_t>(cand.rowsSlot)]) {
            if (rowData[r][feature] <= cand.threshold) {
                left_rows.push_back(r);
            } else {
                right_rows.push_back(r);
            }
        }
        releaseSlot(cand.rowsSlot);
        if (left_rows.empty() || right_rows.empty()) {
            // Degenerate under duplicate feature values.
            releaseSlot(left_slot);
            releaseSlot(right_slot);
            continue;
        }

        // Note: take indices, not references -- the push_backs
        // below may reallocate the node vector.
        const int left_index = static_cast<int>(tree.nodes.size());
        tree.nodes.push_back(makeLeaf(left_rows));
        const int right_index = static_cast<int>(tree.nodes.size());
        tree.nodes.push_back(makeLeaf(right_rows));
        auto &node = tree.nodes[static_cast<size_t>(cand.nodeIndex)];
        node.feature = cand.feature;
        node.threshold = cand.threshold;
        node.left = left_index;
        node.right = right_index;

        if (++splits == params->treeComplexity) {
            // The last split: its children would never be popped, so
            // they are not scored (nor is rng drawn for them).
            releaseSlot(left_slot);
            releaseSlot(right_slot);
            break;
        }
        pushCandidate(left_index, left_slot);
        pushCandidate(right_index, right_slot);
    }

    // Return unexpanded candidates' rows to the pool for the next
    // build; the heap itself keeps its capacity.
    for (const Candidate &c : frontier)
        releaseSlot(c.rowsSlot);
    frontier.clear();
}

void
TreeBuilder::pushCandidate(int node_index, int rows_slot)
{
    const std::vector<size_t> &rows =
        rowPool[static_cast<size_t>(rows_slot)];
    if (rows.size() < 2 * static_cast<size_t>(params->minSamplesLeaf)) {
        releaseSlot(rows_slot);
        return;
    }

    if (params->featureSubset > 0 &&
        static_cast<size_t>(params->featureSubset) < featureCount) {
        featureScratch = rng.sampleIndices(
            featureCount, static_cast<size_t>(params->featureSubset));
        identityFeatures = 0;
    } else if (identityFeatures != featureCount) {
        featureScratch.resize(featureCount);
        for (size_t f = 0; f < featureCount; ++f)
            featureScratch[f] = f;
        identityFeatures = featureCount;
    }

    // One fused scan: per-candidate-feature min/max and the target sum.
    constexpr double inf = std::numeric_limits<double>::infinity();
    const size_t kf = featureScratch.size();
    featLo.assign(kf, inf);
    featHi.assign(kf, -inf);
    double total_sum = 0.0;
    for (size_t r : rows) {
        const double *x = rowData[r];
        for (size_t k = 0; k < kf; ++k) {
            const double v = x[featureScratch[k]];
            featLo[k] = std::min(featLo[k], v);
            featHi[k] = std::max(featHi[k], v);
        }
        total_sum += rowTarget[r];
    }
    const double n = static_cast<double>(rows.size());
    const double base_score = total_sum * total_sum / n;

    // A feature constant over these rows has no boundary to split at;
    // the rest keep their candidate order.
    const int bins = params->histogramBins;
    splitFeature.clear();
    splitLo.clear();
    splitScale.clear();
    for (size_t k = 0; k < kf; ++k) {
        if (featHi[k] > featLo[k]) {
            splitFeature.push_back(featureScratch[k]);
            splitLo.push_back(featLo[k]);
            splitScale.push_back(bins / (featHi[k] - featLo[k]));
        }
    }
    const size_t kv = splitFeature.size();
    const size_t stride = static_cast<size_t>(bins);
    const size_t words = (stride + 63) / 64;
    if (binSum.size() < kv * stride) {
        binSum.resize(kv * stride);
        binCount.resize(kv * stride);
    }
    if (binOccupied.size() < kv * words)
        binOccupied.resize(kv * words);

    // Fill every feature's histogram in ONE row-major pass, summing
    // each bin's targets in row order, and mark the bins it touches.
    for (size_t r : rows) {
        const double *x = rowData[r];
        const double y = rowTarget[r];
        for (size_t k = 0; k < kv; ++k) {
            int b = static_cast<int>(
                (x[splitFeature[k]] - splitLo[k]) * splitScale[k]);
            b = std::clamp(b, 0, bins - 1);
            const size_t slot = k * stride + static_cast<size_t>(b);
            binSum[slot] += y;
            ++binCount[slot];
            binOccupied[k * words + static_cast<size_t>(b) / 64] |=
                uint64_t{1} << (b % 64);
        }
    }

    // Scan only the occupied bins, in ascending order, zeroing each as
    // it is consumed. Skipping an empty bin b changes no decision: its
    // (left_sum, left_n) and so its gain equal those of the occupied
    // bin before it (or fail minSamplesLeaf, or are 0/0 = NaN, when
    // none is), and the strict `>` never takes an equal gain. The top
    // bin holds the feature's maximum and is not a boundary.
    Candidate best;
    best.nodeIndex = node_index;
    const double min_leaf = params->minSamplesLeaf;
    for (size_t k = 0; k < kv; ++k) {
        double *sum = binSum.data() + k * stride;
        uint32_t *count = binCount.data() + k * stride;
        uint64_t *occupied = binOccupied.data() + k * words;
        double left_sum = 0.0;
        double left_n = 0.0;
        for (size_t w = 0; w < words; ++w) {
            uint64_t bits = occupied[w];
            occupied[w] = 0;
            while (bits != 0) {
                const int b = static_cast<int>(w * 64) +
                    std::countr_zero(bits);
                bits &= bits - 1;
                left_sum += sum[b];
                left_n += count[b];
                sum[b] = 0.0;
                count[b] = 0;
                if (b == bins - 1)
                    break;
                const double right_n = n - left_n;
                if (left_n < min_leaf || right_n < min_leaf)
                    continue;
                const double right_sum = total_sum - left_sum;
                const double gain = left_sum * left_sum / left_n +
                    right_sum * right_sum / right_n - base_score;
                if (gain > best.gain) {
                    best.gain = gain;
                    best.feature = static_cast<int>(splitFeature[k]);
                    best.threshold = splitLo[k] + (b + 1) / splitScale[k];
                }
            }
        }
    }

    if (best.feature >= 0) {
        best.rowsSlot = rows_slot;
        frontier.push_back(best);
        std::push_heap(frontier.begin(), frontier.end());
    } else {
        releaseSlot(rows_slot);
    }
}

RegressionTree::RegressionTree(TreeParams params)
    : params(params)
{
    DAC_ASSERT(params.treeComplexity >= 1, "tree complexity must be >= 1");
    DAC_ASSERT(params.histogramBins >= 2, "need at least two bins");
}

void
RegressionTree::train(const DataSet &data)
{
    DAC_ASSERT(!data.empty(), "training on empty dataset");
    TreeBuilder builder;
    builder.build(*this, DataView(data));
}

double
RegressionTree::predict(const std::vector<double> &x) const
{
    return predict(x.data(), x.size());
}

double
RegressionTree::predict(const double *x, size_t n) const
{
    DAC_ASSERT(!nodes.empty(), "predict before train");
    int idx = 0;
    while (nodes[static_cast<size_t>(idx)].feature >= 0) {
        const Node &node = nodes[static_cast<size_t>(idx)];
        DAC_ASSERT(static_cast<size_t>(node.feature) < n,
                   "feature vector too short");
        idx = x[static_cast<size_t>(node.feature)] <= node.threshold
            ? node.left : node.right;
    }
    return nodes[static_cast<size_t>(idx)].value;
}

int
RegressionTree::splitCount() const
{
    int count = 0;
    for (const auto &node : nodes) {
        if (node.feature >= 0)
            ++count;
    }
    return count;
}

int
RegressionTree::leafCount() const
{
    return static_cast<int>(nodes.size()) - splitCount();
}

} // namespace dac::ml
