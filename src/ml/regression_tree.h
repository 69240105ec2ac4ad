/**
 * @file
 * CART regression tree with best-first growth and histogram-based
 * split finding. The paper's "tree complexity" (tc) is the number of
 * split nodes: tc = 1 is a stump, tc = 5 a six-leaf tree (Section 5.2,
 * Figure 8).
 */

#ifndef DAC_ML_REGRESSION_TREE_H
#define DAC_ML_REGRESSION_TREE_H

#include <cstdint>
#include <vector>

#include "ml/model.h"
#include "support/random.h"

namespace dac::persist {
struct ModelIo; // snapshot serializer (src/persist/model_io.h)
}

namespace dac::ml {

class TreeBuilder;

/** Tuning parameters of a regression tree. */
struct TreeParams
{
    /** Number of split nodes (the paper's tree complexity tc). */
    int treeComplexity = 5;
    /** Minimum examples per leaf. */
    int minSamplesLeaf = 3;
    /** Histogram bins per feature when scanning for splits. */
    int histogramBins = 32;
    /**
     * Features considered per split: 0 = all; otherwise a random
     * subset of this size (random forests use featureCount/3).
     */
    int featureSubset = 0;
    /** Seed for feature subsampling. */
    uint64_t seed = 1;
};

/**
 * A single regression tree.
 */
class RegressionTree : public Model
{
  public:
    explicit RegressionTree(TreeParams params);

    void train(const DataSet &data) override;
    double predict(const std::vector<double> &x) const override;
    double predict(const double *x, size_t n) const override;
    std::string name() const override { return "RegressionTree"; }

    /** Number of split nodes actually grown. */
    int splitCount() const;
    /** Number of leaves. */
    int leafCount() const;

  private:
    struct Node
    {
        int feature = -1;       // -1 for leaves
        double threshold = 0.0;
        double value = 0.0;     // leaf prediction
        int left = -1;
        int right = -1;
    };

    TreeParams params;
    std::vector<Node> nodes;

    friend class TreeBuilder;
    friend class FlatEnsemble;
    friend struct dac::persist::ModelIo;
};

/**
 * Grows RegressionTrees best-first, through a DataView.
 *
 * A builder owns every scratch buffer tree growth needs (candidate
 * heap, per-feature range/histogram arrays, a pool of row-index
 * vectors) and reuses them across build() calls, so training a boosted
 * ensemble of thousands of trees through one builder performs no
 * steady-state heap allocation beyond the grown trees themselves.
 * Scoring a candidate costs O(rows x features): the histograms are
 * sparse (an occupancy mask per feature) and are left all-zero by the
 * scan that reads them, so no candidate pays for its empty bins.
 * Split decisions are bit-identical for the same (data, params)
 * regardless of builder reuse. Not thread-safe; use one builder per
 * thread.
 */
class TreeBuilder
{
  public:
    TreeBuilder() = default;

    /** Grow `tree` (using its params) on `data` from scratch. */
    void build(RegressionTree &tree, const DataView &data);

    /**
     * Row-index vectors heap-allocated so far (pool growth events).
     * Instrumentation for the allocation-discipline tests: a build on
     * already-warm scratch reports no new allocations, and a cold
     * build allocates O(1) vectors per split.
     */
    size_t rowVectorAllocations() const { return poolGrowths; }

  private:
    /** A candidate split of one leaf's rows (max-heap by gain). */
    struct Candidate
    {
        double gain = -1.0;
        int nodeIndex = -1;
        int feature = -1;
        double threshold = 0.0;
        /** Index into rowPool of the rows this split would divide. */
        int rowsSlot = -1;

        bool
        operator<(const Candidate &other) const
        {
            return gain < other.gain;
        }
    };

    RegressionTree::Node makeLeaf(const std::vector<size_t> &rows) const;
    /** Find the best histogram split of slot's rows and queue it;
     *  releases the slot when no split is possible. */
    void pushCandidate(int node_index, int rows_slot);
    int acquireSlot();
    void releaseSlot(int slot);

    // Per-build() context (set at the top of build()).
    const TreeParams *params = nullptr;
    Rng rng{1};
    size_t featureCount = 0;
    /** View row i's features and target, resolved once per build. */
    std::vector<const double *> rowData;
    std::vector<double> rowTarget;

    // Reusable scratch, warm across build() calls.
    std::vector<Candidate> frontier;          ///< heap via std::*_heap
    std::vector<std::vector<size_t>> rowPool; ///< row-index storage
    std::vector<int> freeSlots;               ///< spare rowPool entries
    std::vector<size_t> featureScratch;       ///< candidate features
    /** featureScratch holds the identity list 0..n-1 iff n != 0. */
    size_t identityFeatures = 0;
    std::vector<double> featLo, featHi;       ///< fused min/max pass
    /** The candidate features that vary over the node's rows, with
     *  their minimum and bins per value unit. */
    std::vector<size_t> splitFeature;
    std::vector<double> splitLo, splitScale;
    /**
     * Split histograms, one row of `bins` per varying feature, and
     * per-feature occupancy masks of (bins + 63) / 64 words. Every
     * entry is zero between candidates: the scan clears what the fill
     * set, so they are grown, never re-zeroed.
     */
    std::vector<double> binSum;
    std::vector<uint32_t> binCount;
    std::vector<uint64_t> binOccupied;
    size_t poolGrowths = 0;
};

} // namespace dac::ml

#endif // DAC_ML_REGRESSION_TREE_H
