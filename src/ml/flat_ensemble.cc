#include "ml/flat_ensemble.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ml/regression_tree.h"
#include "support/logging.h"

namespace dac::ml {

void
FlatEnsemble::appendMember(double weight, double baseline,
                           const std::vector<RegressionTree> &trees,
                           double leaf_scale)
{
    DAC_ASSERT(!trees.empty(), "compiling an untrained member");
    Member member;
    member.weight = weight;
    member.baseline = baseline;
    member.firstTree = static_cast<uint32_t>(roots.size());
    member.treeCount = static_cast<uint32_t>(trees.size());
    member.firstSegment = static_cast<uint32_t>(segments.size());

    // BFS renumbering scratch: siblings must land in adjacent slots
    // so the walk computes right = left + 1 instead of loading it.
    std::vector<int32_t> order;
    std::vector<int32_t> new_index;

    for (const RegressionTree &tree : trees) {
        const int32_t base = static_cast<int32_t>(feature.size());
        roots.push_back(base);

        order.clear();
        order.push_back(0);
        for (size_t q = 0; q < order.size(); ++q) {
            const auto &node =
                tree.nodes[static_cast<size_t>(order[q])];
            if (node.feature >= 0) {
                order.push_back(node.left);
                order.push_back(node.right);
            }
        }
        new_index.assign(tree.nodes.size(), 0);
        for (size_t i = 0; i < order.size(); ++i)
            new_index[static_cast<size_t>(order[i])] =
                static_cast<int32_t>(i);

        for (size_t i = 0; i < order.size(); ++i) {
            const auto &node =
                tree.nodes[static_cast<size_t>(order[i])];
            if (node.feature >= 0) {
                feature.push_back(node.feature);
                threshold.push_back(node.threshold);
                leftChild.push_back(
                    base + new_index[static_cast<size_t>(node.left)]);
                leafValue.push_back(0.0);
                minFeatures = std::max(
                    minFeatures, static_cast<size_t>(node.feature) + 1);
            } else {
                // Leaf: learning rate folded into the stored value.
                // Self-loop encoding: threshold NaN makes x <= t
                // false for EVERY x — finite, infinite, or NaN — so
                // the step goes "right" to leftChild + 1 == self and
                // padded walk steps are no-ops on all inputs. (A +inf
                // threshold with leftChild == self would break on a
                // NaN feature: !(NaN <= +inf) escapes the loop. The
                // leftChild - 1 slot is never dereferenced — the
                // always-false compare means the +1 is uncondi-
                // tional — so self - 1 may even be -1 for a leaf at
                // node 0. x[0] is readable whenever a padded step can
                // occur, since a deeper sibling tree implies a split
                // node and hence minFeatures >= 1.)
                feature.push_back(0);
                threshold.push_back(
                    std::numeric_limits<double>::quiet_NaN());
                leftChild.push_back(base + static_cast<int32_t>(i) - 1);
                leafValue.push_back(leaf_scale * node.value);
            }
            packed.push_back(PackedNode{feature.back(),
                                        leftChild.back(),
                                        threshold.back()});
        }
        depths.push_back(treeDepth(tree));
    }

    // Population-blocked layout: carve this member's trees into
    // segments of kSegmentTrees, depth-sort each segment (stable, so
    // the layout is deterministic), and group the sorted trees into
    // lock-step blocks of eight structurally-similar lanes. Sorting
    // is free to reorder the walk because each sorted tree remembers
    // its original position (slotOf) and the accumulation pass reads
    // leaves back in that order — the determinism contract's order.
    std::vector<uint32_t> sorted;
    std::vector<int32_t> tmpRoots;
    std::vector<int32_t> tmpDepths;
    for (uint32_t segStart = 0; segStart < member.treeCount;
         segStart += kSegmentTrees) {
        Segment seg;
        seg.firstTree = member.firstTree + segStart;
        seg.treeCount =
            std::min(kSegmentTrees, member.treeCount - segStart);
        seg.firstBlock = static_cast<uint32_t>(blocks.size());

        sorted.resize(seg.treeCount);
        for (uint32_t j = 0; j < seg.treeCount; ++j)
            sorted[j] = seg.firstTree + j;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [&](uint32_t a, uint32_t b) {
                             return depths[a] < depths[b];
                         });

        // Physically permute this segment's roots/depths into sorted
        // order; slotOf maps each sorted position back.
        tmpRoots.assign(seg.treeCount, 0);
        tmpDepths.assign(seg.treeCount, 0);
        for (uint32_t j = 0; j < seg.treeCount; ++j) {
            tmpRoots[j] = roots[sorted[j]];
            tmpDepths[j] = depths[sorted[j]];
        }
        for (uint32_t j = 0; j < seg.treeCount; ++j) {
            roots[seg.firstTree + j] = tmpRoots[j];
            depths[seg.firstTree + j] = tmpDepths[j];
            slotOf.push_back(
                static_cast<int32_t>(sorted[j] - seg.firstTree));
        }

        for (uint32_t t = seg.firstTree;
             t < seg.firstTree + seg.treeCount; t += 8) {
            Block block;
            block.firstTree = t;
            block.treeCount = std::min<uint32_t>(
                8, seg.firstTree + seg.treeCount - t);
            for (uint32_t j = 0; j < block.treeCount; ++j)
                block.steps = std::max(block.steps, depths[t + j]);
            blocks.push_back(block);
        }
        seg.blockCount =
            static_cast<uint32_t>(blocks.size()) - seg.firstBlock;
        segments.push_back(seg);
    }
    member.segmentCount =
        static_cast<uint32_t>(segments.size()) - member.firstSegment;
    members.push_back(member);
}

int32_t
FlatEnsemble::treeDepth(const RegressionTree &tree)
{
    // Nodes are appended children-after-parent, so a forward pass
    // sees every parent's depth before its children need it.
    std::vector<int32_t> depth(tree.nodes.size(), 0);
    int32_t deepest = 0;
    for (size_t i = 0; i < tree.nodes.size(); ++i) {
        const auto &node = tree.nodes[i];
        if (node.feature < 0) {
            deepest = std::max(deepest, depth[i]);
            continue;
        }
        depth[static_cast<size_t>(node.left)] = depth[i] + 1;
        depth[static_cast<size_t>(node.right)] = depth[i] + 1;
    }
    return deepest;
}

double
FlatEnsemble::predictRaw(const double *x) const
{
    const PackedNode *node = packed.data();
    const double *val = leafValue.data();
    const int32_t *root = roots.data();
    const int32_t *slot = slotOf.data();

    // A single tree walk is a chain of dependent loads (node -> child
    // -> child...) plus a hard-to-predict comparison per node, so its
    // cost is load latency and branch misses, not throughput. The
    // step below is branchless (the comparison becomes +0/+1 onto the
    // left-child index, no child load at all) and touches one 16-byte
    // packed record plus x[feature] — two loads — per node. A block's
    // trees — eight, depth-sorted so padding is rare — walk in
    // lock-step to overlap their load chains; the self-looping leaf
    // encoding makes any padded step a no-op. Leaf values accumulate
    // one tree at a time in ORIGINAL tree order via the segment
    // scratch, so the sum is bit-identical to the serial walk.
    double out = 0.0;
    for (const Member &m : members) {
        double acc = m.baseline;
        const uint32_t segEnd = m.firstSegment + m.segmentCount;
        for (uint32_t s = m.firstSegment; s < segEnd; ++s) {
            const Segment &seg = segments[s];
            int32_t leaf[kSegmentTrees];
            const uint32_t blockEnd = seg.firstBlock + seg.blockCount;
            for (uint32_t b = seg.firstBlock; b < blockEnd; ++b) {
                const Block &blk = blocks[b];
                int32_t idx[8];
                if (blk.treeCount == 8) {
                    // Constant trip counts so the compiler fully
                    // unrolls the lane loops.
                    for (uint32_t j = 0; j < 8; ++j)
                        idx[j] = root[blk.firstTree + j];
                    for (int32_t d = 0; d < blk.steps; ++d) {
                        for (uint32_t j = 0; j < 8; ++j)
                            idx[j] = stepNode(node, idx[j], x);
                    }
                    for (uint32_t j = 0; j < 8; ++j)
                        leaf[slot[blk.firstTree + j]] = idx[j];
                } else {
                    const uint32_t lanes = blk.treeCount;
                    for (uint32_t j = 0; j < lanes; ++j)
                        idx[j] = root[blk.firstTree + j];
                    for (int32_t d = 0; d < blk.steps; ++d) {
                        for (uint32_t j = 0; j < lanes; ++j)
                            idx[j] = stepNode(node, idx[j], x);
                    }
                    for (uint32_t j = 0; j < lanes; ++j)
                        leaf[slot[blk.firstTree + j]] = idx[j];
                }
            }
            for (uint32_t k = 0; k < seg.treeCount; ++k)
                acc += val[leaf[k]];
        }
        out += m.weight * acc;
    }
    return out;
}

template <int R>
void
FlatEnsemble::walkScalarRows(const double *const *rows,
                             double *outs) const
{
    const PackedNode *node = packed.data();
    const double *val = leafValue.data();
    const int32_t *root = roots.data();
    const int32_t *slot = slotOf.data();

    for (int r = 0; r < R; ++r)
        outs[r] = 0.0;
    for (const Member &m : members) {
        double acc[R];
        for (int r = 0; r < R; ++r)
            acc[r] = m.baseline;
        const uint32_t segEnd = m.firstSegment + m.segmentCount;
        for (uint32_t s = m.firstSegment; s < segEnd; ++s) {
            const Segment &seg = segments[s];
            int32_t leaf[R][kSegmentTrees];
            const uint32_t blockEnd = seg.firstBlock + seg.blockCount;
            for (uint32_t b = seg.firstBlock; b < blockEnd; ++b) {
                const Block &blk = blocks[b];
                int32_t idx[R][8];
                const uint32_t lanes = blk.treeCount;
                if (lanes == 8) {
                    for (int r = 0; r < R; ++r)
                        for (uint32_t j = 0; j < 8; ++j)
                            idx[r][j] = root[blk.firstTree + j];
                    // All R * 8 chains advance inside one depth
                    // iteration (a block's rows share the step
                    // count), so the walk stops being bound by any
                    // single row's chain latency.
                    for (int32_t d = 0; d < blk.steps; ++d) {
                        for (int r = 0; r < R; ++r) {
                            const double *x = rows[r];
                            for (uint32_t j = 0; j < 8; ++j)
                                idx[r][j] =
                                    stepNode(node, idx[r][j], x);
                        }
                    }
                    for (int r = 0; r < R; ++r)
                        for (uint32_t j = 0; j < 8; ++j)
                            leaf[r][slot[blk.firstTree + j]] =
                                idx[r][j];
                } else {
                    for (int r = 0; r < R; ++r)
                        for (uint32_t j = 0; j < lanes; ++j)
                            idx[r][j] = root[blk.firstTree + j];
                    for (int32_t d = 0; d < blk.steps; ++d) {
                        for (int r = 0; r < R; ++r) {
                            const double *x = rows[r];
                            for (uint32_t j = 0; j < lanes; ++j)
                                idx[r][j] =
                                    stepNode(node, idx[r][j], x);
                        }
                    }
                    for (int r = 0; r < R; ++r)
                        for (uint32_t j = 0; j < lanes; ++j)
                            leaf[r][slot[blk.firstTree + j]] =
                                idx[r][j];
                }
            }
            for (int r = 0; r < R; ++r)
                for (uint32_t k = 0; k < seg.treeCount; ++k)
                    acc[r] += val[leaf[r][k]];
        }
        for (int r = 0; r < R; ++r)
            outs[r] += m.weight * acc[r];
    }
}

double
FlatEnsemble::predictSerial(const double *x, size_t n) const
{
    DAC_ASSERT(!members.empty(), "predict on an empty ensemble");
    DAC_ASSERT(n >= minFeatures, "feature vector too short");
    const PackedNode *node = packed.data();
    const double *val = leafValue.data();
    const int32_t *root = roots.data();
    const int32_t *slot = slotOf.data();

    // The reference walk: every tree walks its own serial pointer
    // chain, one at a time — the latency-bound baseline the blocked
    // walks are measured against. Same step, same scratch, same
    // accumulation order: same bits.
    double out = 0.0;
    for (const Member &m : members) {
        double acc = m.baseline;
        const uint32_t segEnd = m.firstSegment + m.segmentCount;
        for (uint32_t s = m.firstSegment; s < segEnd; ++s) {
            const Segment &seg = segments[s];
            int32_t leaf[kSegmentTrees];
            for (uint32_t t = seg.firstTree;
                 t < seg.firstTree + seg.treeCount; ++t) {
                int32_t i = root[t];
                const int32_t steps = depths[t];
                for (int32_t d = 0; d < steps; ++d)
                    i = stepNode(node, i, x);
                leaf[slot[t]] = i;
            }
            for (uint32_t k = 0; k < seg.treeCount; ++k)
                acc += val[leaf[k]];
        }
        out += m.weight * acc;
    }
    return applyExp ? std::exp(out) : out;
}

double
FlatEnsemble::predict(const double *x, size_t n) const
{
    DAC_ASSERT(!members.empty(), "predict on an empty ensemble");
    DAC_ASSERT(n >= minFeatures, "feature vector too short");
    const double raw = predictRaw(x);
    return applyExp ? std::exp(raw) : raw;
}

double
FlatEnsemble::predict(const std::vector<double> &x) const
{
    return predict(x.data(), x.size());
}

namespace {

/** Rows the batch walk interleaves per walkScalarRows call. */
constexpr size_t kBatchRows = 16;

} // namespace

template <typename RowAt>
void
FlatEnsemble::predictRows(size_t count, const RowAt &rowAt, double *out,
                          Executor *executor) const
{
    // Each task walks kBatchRows rows through the blocks together.
    // Per-row bits match the single-row walk exactly, so chunking is
    // invisible.
    const size_t chunks = (count + kBatchRows - 1) / kBatchRows;
    parallelFor(executor, chunks, [&](size_t c) {
        const size_t first = c * kBatchRows;
        if (first + kBatchRows <= count) {
            const double *rows[kBatchRows];
            for (size_t r = 0; r < kBatchRows; ++r)
                rows[r] = rowAt(first + r);
            double raw[kBatchRows];
            walkScalarRows<kBatchRows>(rows, raw);
            for (size_t r = 0; r < kBatchRows; ++r)
                out[first + r] = applyExp ? std::exp(raw[r]) : raw[r];
        } else {
            for (size_t i = first; i < count; ++i) {
                const double raw = predictRaw(rowAt(i));
                out[i] = applyExp ? std::exp(raw) : raw;
            }
        }
    });
}

void
FlatEnsemble::predictBatch(const double *const *rows, size_t count,
                           size_t row_len, double *out,
                           Executor *executor) const
{
    DAC_ASSERT(!members.empty(), "predict on an empty ensemble");
    DAC_ASSERT(row_len >= minFeatures, "feature rows too short");
    predictRows(
        count, [rows](size_t i) { return rows[i]; }, out, executor);
}

void
FlatEnsemble::predictBatch(const double *rows, size_t row_stride,
                           size_t count, double *out,
                           Executor *executor) const
{
    DAC_ASSERT(!members.empty(), "predict on an empty ensemble");
    DAC_ASSERT(row_stride >= minFeatures, "row stride too short");
    predictRows(
        count, [rows, row_stride](size_t i) { return rows + i * row_stride; },
        out, executor);
}

} // namespace dac::ml
