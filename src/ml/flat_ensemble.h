/**
 * @file
 * Compiled inference for tree ensembles.
 *
 * The GA issues populationSize x generations model queries per tuning
 * request (Section 3.3; Table 3's cost argument rests on each being
 * ~microseconds). The interpreted path walks a pointer-rich object
 * graph — HierarchicalModel -> GradientBoost -> RegressionTree ->
 * vector<Node> — with a virtual call and a bounds assert per hop. A
 * FlatEnsemble is the same trained model flattened once into one
 * contiguous array of packed node records (plus the leaf values), with
 * per-tree learning rates folded into the leaf values at compile time,
 * so a prediction is a handful of tight array walks with one assert
 * per query. It is a pure function of the model: snapshots store the
 * model only and recompile on load (persist/snapshot.h).
 *
 * The walk itself is blocked: at compile time trees are sorted by
 * depth inside fixed-size segments and grouped into blocks of eight
 * structurally-similar lanes (the population-blocked layout — equal
 * depths mean the lock-step walk pads almost nothing, and each block
 * precomputes its step count so no per-query depth scan remains).
 * Each node is one 16-byte {feature, leftChild, threshold} record, so
 * a walk step costs two loads: the record and x[feature]. predict()
 * walks a block's eight lanes in lock-step; predictBatch()
 * additionally interleaves sixteen rows per walk; and predictSerial()
 * is the textbook reference (one tree, one serial chain at a time)
 * that tests and benchmarks compare against. The walk is scalar on
 * purpose: an AVX2 gather walk measured slower than the blocked walk
 * on x86-64 (EXPERIMENTS.md, "Ablations").
 *
 * Determinism contract: predict(), predictBatch() and predictSerial()
 * return EXACTLY (bit-for-bit) what the interpreted Model::predict
 * returns. Folding keeps that exact: lr * leaf is the same product
 * whether computed at compile time or per query, and per-member
 * accumulation (acc = baseline + sum of scaled leaves;
 * out += weight * acc) reproduces the interpreted operation order.
 * The blocked walks only reorder the index walk — integer arithmetic
 * plus the exact comparison x <= t, which has one correct answer per
 * lane — while leaf values still accumulate one tree at a time in the
 * ORIGINAL tree order: the depth-sorted walk parks each lane's leaf
 * index in a per-segment scratch slot keyed by the tree's original
 * position, and the accumulation pass reads the scratch back in that
 * order. Member weights are deliberately NOT folded into the leaves:
 * distributing weight * (baseline + sum) over the sum would re-round
 * differently. See DESIGN.md sections 9 and 14.
 */

#ifndef DAC_ML_FLAT_ENSEMBLE_H
#define DAC_ML_FLAT_ENSEMBLE_H

#include <cstdint>
#include <vector>

#include "support/executor.h"

namespace dac::ml {

class RegressionTree;

/**
 * A trained tree ensemble compiled to one contiguous node array.
 *
 * Built via Model::compile() (supported by GradientBoost,
 * HierarchicalModel, and LogTargetModel wrappers thereof). Immutable
 * after compilation and safe to query from any number of threads
 * concurrently.
 */
class FlatEnsemble
{
  public:
    /**
     * Predict one feature vector of n doubles.
     * Exactly equals the source model's predict on the same input.
     */
    double predict(const double *x, size_t n) const;

    /** Vector-convenience overload of predict. */
    double predict(const std::vector<double> &x) const;

    /**
     * Predict `count` rows given as an array of row pointers, each at
     * least `row_len` doubles, into out[0..count). Rows are scored
     * through `executor` when provided (results are identical either
     * way; each row's score is independent).
     */
    void predictBatch(const double *const *rows, size_t count,
                      size_t row_len, double *out,
                      Executor *executor = nullptr) const;

    /**
     * Predict `count` rows packed contiguously with `row_stride`
     * doubles between row starts (row_stride >= minFeatureCount()).
     */
    void predictBatch(const double *rows, size_t row_stride, size_t count,
                      double *out, Executor *executor = nullptr) const;

    /**
     * Predict one row through the serial reference walk: one tree,
     * one dependent chain at a time. Same bits as predict(); tests,
     * `dac_snap verify --deep` and the benchmarks compare against it.
     */
    double predictSerial(const double *x, size_t n) const;

    /** First-order models in the compiled combination. */
    size_t memberCount() const { return members.size(); }
    /** Total trees across all members. */
    size_t treeCount() const { return roots.size(); }
    /** Total nodes across all trees. */
    size_t nodeCount() const { return packed.size(); }
    /** Lock-step walk blocks across all members (<= 8 trees each). */
    size_t blockCount() const { return blocks.size(); }
    /** Feature vectors must carry at least this many doubles. */
    size_t minFeatureCount() const { return minFeatures; }
    /** True when predictions are exponentiated (log-target models). */
    bool expOutput() const { return applyExp; }

  private:
    friend class GradientBoost;
    friend class HierarchicalModel;
    friend class LogTargetModel;

    FlatEnsemble() = default;

    /**
     * Append one first-order member: `trees` are flattened in order
     * with leaf values scaled by `leaf_scale` (the member's learning
     * rate), combined as out += weight * (baseline + sum of leaves).
     */
    void appendMember(double weight, double baseline,
                      const std::vector<RegressionTree> &trees,
                      double leaf_scale);

    /** Walk every member/tree with the eight-lane lock-step walk; no
     *  exp, no asserts. */
    double predictRaw(const double *x) const;

    /**
     * Walk R rows through every block together (R * 8 interleaved
     * lanes). The single-row walk is latency-bound on its
     * node -> x -> compare -> index chain, so batching rows into the
     * same depth loop multiplies the independent chains the core can
     * overlap. Each row's arithmetic is exactly the single-row
     * walk's — same bits per row. Raw outputs (no exp).
     */
    template <int R>
    void walkScalarRows(const double *const *rows, double *outs) const;

    /**
     * The batch walk behind both predictBatch overloads: rows go
     * through walkScalarRows in chunks of sixteen, a short tail one
     * row at a time through predictRaw. rowAt(i) returns row i.
     */
    template <typename RowAt>
    void predictRows(size_t count, const RowAt &rowAt, double *out,
                     Executor *executor) const;

    /** Steps from the root of `tree` to its deepest leaf. */
    static int32_t treeDepth(const RegressionTree &tree);

    struct Member
    {
        double weight = 1.0;
        double baseline = 0.0;
        uint32_t firstTree = 0;
        uint32_t treeCount = 0;
        uint32_t firstSegment = 0;
        uint32_t segmentCount = 0;
    };

    /**
     * Walks accumulate leaf values in the ORIGINAL tree order even
     * though trees walk in depth-sorted order, via a per-segment
     * scratch of leaf indices. kSegmentTrees bounds that scratch so
     * it lives on the walk's stack (predict stays allocation-free and
     * thread-safe); members with more trees get several segments.
     */
    static constexpr uint32_t kSegmentTrees = 256;

    /**
     * A depth-sorted run of one member's trees, at most kSegmentTrees
     * long. Trees are physically reordered (roots/depths permuted) so
     * a segment's blocks cover consecutive sorted trees; slotOf maps
     * each sorted tree back to its original position within the
     * segment for the accumulation pass.
     */
    struct Segment
    {
        uint32_t firstTree = 0;
        uint32_t treeCount = 0;
        uint32_t firstBlock = 0;
        uint32_t blockCount = 0;
    };

    /**
     * One lock-step walk group: up to eight depth-sorted trees of one
     * segment, padded (via the self-looping leaves) to the deepest
     * lane — nearly nothing, since sorting makes a block's lanes
     * structurally similar. Step counts are computed at compile time
     * so a walk needs no per-query depth scan.
     */
    struct Block
    {
        uint32_t firstTree = 0;
        uint32_t treeCount = 0;
        int32_t steps = 0;
    };

    /**
     * One node as the walks step through it: the {feature, leftChild}
     * pair and the threshold share one 16-byte record, so a walk step
     * touches one cache line per node.
     */
    struct PackedNode
    {
        int32_t feature = 0;
        int32_t leftChild = 0;
        double threshold = 0.0;
    };
    static_assert(sizeof(PackedNode) == 16,
                  "a packed node is one 16-byte record");

    /**
     * One branchless walk step: the next node index for `x` at node
     * `i`. Written as plain field access on purpose — GCC folds the
     * comparison into a memory-operand comisd and carries the
     * predicate into the index add; hand-fusing the {feature,
     * leftChild} pair into one 8-byte load was measured SLOWER
     * because it blocks exactly that folding.
     */
    static int32_t stepNode(const PackedNode *nodes, int32_t i,
                            const double *x)
    {
        const PackedNode &n = nodes[static_cast<size_t>(i)];
        return n.leftChild +
               static_cast<int32_t>(!(x[n.feature] <= n.threshold));
    }

    std::vector<Member> members;
    /** Depth-sorted tree runs, member-major. */
    std::vector<Segment> segments;
    /** Lock-step walk blocks, segment-major. */
    std::vector<Block> blocks;
    /** Node index of each tree's root, segment-major, depth-sorted
     *  within each segment. */
    std::vector<int32_t> roots;
    /** Steps from each tree's root to its deepest leaf (same order
     *  as roots). */
    std::vector<int32_t> depths;
    /** Each sorted tree's original position within its segment — the
     *  accumulation scratch slot. */
    std::vector<int32_t> slotOf;
    // One record per node, all trees concatenated, BFS-renumbered per
    // tree so a split's children occupy ADJACENT slots: a walk step
    // is the branchless, load-free-child
    //   i = n.leftChild + (x[n.feature] > n.threshold)
    // (computed as !(x <= t), so NaN features go right exactly like
    // the interpreted walk's split nodes). Leaves self-loop — feature
    // 0, threshold NaN, leftChild = self - 1 (x <= NaN is false for
    // EVERY x, so the step is unconditionally leftChild + 1 == self;
    // see appendMember for why +inf would break on NaN features) —
    // with the pre-scaled leaf value in leafValue[i], so a walk can
    // run a fixed number of steps without a per-node "is leaf" branch
    // and a block's trees walk in lock-step (see predictRaw).
    std::vector<PackedNode> packed;
    std::vector<double> leafValue;
    size_t minFeatures = 0;
    bool applyExp = false;
};

} // namespace dac::ml

#endif // DAC_ML_FLAT_ENSEMBLE_H
