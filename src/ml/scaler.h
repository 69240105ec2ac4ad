/**
 * @file
 * Feature/target standardization shared by the SVM, ANN, and RS
 * baselines (tree models are scale-invariant and skip it).
 */

#ifndef DAC_ML_SCALER_H
#define DAC_ML_SCALER_H

#include <vector>

#include "ml/dataset.h"

namespace dac::ml {

/**
 * Per-feature z-score standardizer.
 */
class Scaler
{
  public:
    /** Learn means and standard deviations from a dataset's features. */
    void fit(const DataSet &data);

    /** Standardize one feature vector. */
    std::vector<double> transform(const std::vector<double> &x) const;

    /** Number of features the scaler was fit on (0 before fit). */
    size_t featureCount() const { return means.size(); }

  private:
    std::vector<double> means;
    std::vector<double> stds;
};

/**
 * Target z-score standardizer (so squared-loss learners see a
 * well-conditioned target).
 */
class TargetScaler
{
  public:
    void fit(const std::vector<double> &y);
    double transform(double y) const;
    double inverse(double z) const;

  private:
    double mean = 0.0;
    double std = 1.0;
};

} // namespace dac::ml

#endif // DAC_ML_SCALER_H
