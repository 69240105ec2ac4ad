/**
 * @file
 * Dense regression dataset: feature matrix plus target vector. This is
 * the in-memory form of the paper's training set S (Eq. 6): one row
 * per performance vector, features = {c1..c41, dsize}, target = t.
 */

#ifndef DAC_ML_DATASET_H
#define DAC_ML_DATASET_H

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "support/random.h"

namespace dac::ml {

/**
 * Row-major dense dataset for regression.
 */
class DataSet
{
  public:
    DataSet() = default;

    /** Create an empty dataset with a fixed feature count. */
    explicit DataSet(size_t feature_count);

    /** Number of rows. */
    size_t size() const { return targets.size(); }
    /** Number of features per row. */
    size_t featureCount() const { return _featureCount; }
    bool empty() const { return targets.empty(); }

    /** Append one example. */
    void addRow(const std::vector<double> &features, double target);

    /** Pointer to row i's features (featureCount() doubles). */
    const double *row(size_t i) const;

    /** Row i's features as a vector copy. */
    std::vector<double> rowVector(size_t i) const;

    /** Target of row i. */
    double target(size_t i) const;

    /** All targets. */
    const std::vector<double> &allTargets() const { return targets; }

    /** Feature j of row i. */
    double at(size_t i, size_t j) const;

    /** Dataset restricted to the given row indices (copies). */
    DataSet subset(const std::vector<size_t> &indices) const;

    /** Bootstrap resample of the same size. */
    DataSet bootstrap(Rng &rng) const;

    /**
     * Shuffled train/holdout split.
     *
     * @param holdout_fraction Fraction of rows in the second part.
     */
    std::pair<DataSet, DataSet> split(double holdout_fraction,
                                      Rng &rng) const;

    /** Column-wise min/max over all rows, for histogram binning. */
    void featureRange(size_t j, double *min_out, double *max_out) const;

  private:
    size_t _featureCount = 0;
    std::vector<double> features; // row-major
    std::vector<double> targets;
};

/**
 * Non-owning, row-indirected, target-overridable view of a DataSet.
 *
 * Training code that used to materialize bootstrap resamples or
 * residual datasets (one full feature-matrix copy per tree) reads
 * through a DataView instead: the base rows stay in place, an optional
 * index vector remaps row i, and an optional target vector substitutes
 * the regression targets (e.g. boosting residuals). All referenced
 * storage must outlive the view.
 */
class DataView
{
  public:
    /** Identity view of a whole dataset. */
    explicit DataView(const DataSet &data) : base(&data) {}

    /**
     * Indirected view: row i of the view is base row (*row_index)[i].
     *
     * @param row_index       Row remapping; nullptr = identity.
     * @param target_override Per-view-row targets (indexed by view
     *                        position, not base row); nullptr = the
     *                        base targets of the remapped rows.
     */
    DataView(const DataSet &data, const std::vector<size_t> *row_index,
             const std::vector<double> *target_override)
        : base(&data), rowIndex(row_index),
          targetOverride(target_override)
    {
    }

    size_t size() const
    {
        return rowIndex != nullptr ? rowIndex->size() : base->size();
    }
    size_t featureCount() const { return base->featureCount(); }
    bool empty() const { return size() == 0; }

    /** Pointer to view-row i's features (featureCount() doubles). */
    const double *row(size_t i) const { return base->row(remap(i)); }

    /** Target of view-row i. */
    double target(size_t i) const
    {
        return targetOverride != nullptr ? (*targetOverride)[i]
                                         : base->target(remap(i));
    }

  private:
    size_t remap(size_t i) const
    {
        return rowIndex != nullptr ? (*rowIndex)[i] : i;
    }

    const DataSet *base;
    const std::vector<size_t> *rowIndex = nullptr;
    const std::vector<double> *targetOverride = nullptr;
};

} // namespace dac::ml

#endif // DAC_ML_DATASET_H
