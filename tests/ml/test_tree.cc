/** @file Tests for the CART regression tree. */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "ml/boosting.h"
#include "ml/random_forest.h"
#include "ml/regression_tree.h"
#include "persist/model_io.h"

namespace dac::ml {
namespace {

/** y = step function of x0. */
DataSet
stepData(int n = 200)
{
    DataSet d(2);
    Rng rng(1);
    for (int i = 0; i < n; ++i) {
        const double x0 = rng.uniform();
        const double x1 = rng.uniform();
        d.addRow({x0, x1}, x0 < 0.5 ? 1.0 : 5.0);
    }
    return d;
}

TEST(Tree, FitsConstantData)
{
    DataSet d(1);
    for (int i = 0; i < 20; ++i)
        d.addRow({static_cast<double>(i)}, 7.0);
    RegressionTree tree(TreeParams{});
    tree.train(d);
    EXPECT_DOUBLE_EQ(tree.predict({3.0}), 7.0);
    EXPECT_EQ(tree.splitCount(), 0);
}

TEST(Tree, LearnsStepFunction)
{
    RegressionTree tree(TreeParams{});
    tree.train(stepData());
    EXPECT_NEAR(tree.predict({0.2, 0.5}), 1.0, 0.2);
    EXPECT_NEAR(tree.predict({0.9, 0.5}), 5.0, 0.2);
}

TEST(Tree, StumpHasOneSplit)
{
    TreeParams p;
    p.treeComplexity = 1;
    RegressionTree tree(p);
    tree.train(stepData());
    EXPECT_EQ(tree.splitCount(), 1);
    EXPECT_EQ(tree.leafCount(), 2);
}

TEST(Tree, ComplexityBoundsSplits)
{
    DataSet d(1);
    Rng rng(3);
    for (int i = 0; i < 500; ++i) {
        const double x = rng.uniform();
        d.addRow({x}, std::sin(10.0 * x));
    }
    TreeParams p;
    p.treeComplexity = 5;
    RegressionTree tree(p);
    tree.train(d);
    EXPECT_LE(tree.splitCount(), 5);
    EXPECT_GE(tree.splitCount(), 1);
    EXPECT_EQ(tree.leafCount(), tree.splitCount() + 1);
}

TEST(Tree, DeeperTreesFitBetter)
{
    DataSet d(1);
    Rng rng(4);
    for (int i = 0; i < 800; ++i) {
        const double x = rng.uniform();
        d.addRow({x}, std::sin(8.0 * x));
    }
    auto sse = [&](int tc) {
        TreeParams p;
        p.treeComplexity = tc;
        RegressionTree t(p);
        t.train(d);
        double sum = 0.0;
        for (size_t i = 0; i < d.size(); ++i) {
            const double e = t.predict(d.rowVector(i)) - d.target(i);
            sum += e * e;
        }
        return sum;
    };
    EXPECT_LT(sse(16), sse(2));
}

TEST(Tree, IgnoresUninformativeFeature)
{
    // x1 is pure noise; the step is in x0.
    RegressionTree tree(TreeParams{.treeComplexity = 1});
    tree.train(stepData(400));
    // Prediction must not depend on x1.
    EXPECT_DOUBLE_EQ(tree.predict({0.2, 0.0}),
                     tree.predict({0.2, 1.0}));
}

TEST(Tree, MinSamplesLeafRespected)
{
    DataSet d(1);
    for (int i = 0; i < 8; ++i)
        d.addRow({static_cast<double>(i)}, i < 4 ? 0.0 : 1.0);
    TreeParams p;
    p.minSamplesLeaf = 5;
    RegressionTree tree(p);
    tree.train(d);
    // 8 points cannot be split into two leaves of >= 5.
    EXPECT_EQ(tree.splitCount(), 0);
}

TEST(Tree, FeatureSubsettingStillLearns)
{
    TreeParams p;
    p.featureSubset = 1;
    p.treeComplexity = 10;
    p.seed = 1;
    RegressionTree tree(p);
    tree.train(stepData(400));
    // Over 10 single-feature draws the step in x0 is all but certain
    // to be found (P(only x1 drawn) ~ 0.1%).
    EXPECT_GT(tree.predict({0.9, 0.5}), tree.predict({0.1, 0.5}));
}

TEST(Tree, PredictBeforeTrainPanics)
{
    RegressionTree tree(TreeParams{});
    EXPECT_THROW(tree.predict({1.0}), std::logic_error);
}

/** FNV-1a over bytes, continuing from `h`. */
uint64_t
foldBytes(uint64_t h, const uint8_t *p, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
foldDouble(uint64_t h, double v)
{
    const uint64_t bits = std::bit_cast<uint64_t>(v);
    uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<uint8_t>(bits >> (8 * i));
    return foldBytes(h, bytes, 8);
}

/**
 * One sweep dataset: 1-12 features, 4-124 rows. Each column is
 * continuous, 3-valued, constant, or a copy of an earlier column, and
 * is then scaled by 2^0..2^40. A power-of-two copy bins exactly like
 * its source, so its splits tie with the source's gains to the bit,
 * which pins the strict `>` that keeps the first of equal gains.
 * Targets come from a small set on a third of datasets, so nodes
 * share target values.
 */
DataSet
sweepData(Rng &rng)
{
    const size_t features = 1 + rng.index(12);
    const size_t rows = 4 + rng.index(121);
    std::vector<int> kind(features);
    std::vector<size_t> source(features);
    std::vector<double> scale(features);
    std::vector<double> constant(features);
    for (size_t f = 0; f < features; ++f) {
        kind[f] = static_cast<int>(rng.index(f == 0 ? 3 : 4));
        source[f] = f == 0 ? 0 : rng.index(f);
        scale[f] = std::ldexp(1.0, static_cast<int>(rng.index(41)));
        constant[f] = rng.uniform();
    }
    const bool discreteTargets = rng.index(3) == 0;

    DataSet d(features);
    std::vector<double> x(features);
    for (size_t r = 0; r < rows; ++r) {
        for (size_t f = 0; f < features; ++f) {
            double v = 0.0;
            switch (kind[f]) {
              case 0:
                v = rng.uniform();
                break;
              case 1:
                v = static_cast<double>(rng.index(3));
                break;
              case 2:
                v = constant[f];
                break;
              default:
                v = x[source[f]] / scale[source[f]];
                break;
            }
            x[f] = v * scale[f];
        }
        // Positive targets: boosting scores validation error as MAPE.
        const double y = discreteTargets
            ? 1.5 * static_cast<double>(1 + rng.index(4))
            : 10.0 + 10.0 * x[0] / scale[0] + rng.uniform() - 0.5;
        d.addRow(x, y);
    }
    return d;
}

TEST(Tree, SplitDecisionsMatchParentDigest)
{
    // Every split decision of the histogram split finder, pinned to
    // the scan it replaced (a full walk of every bin boundary of every
    // feature). A seeded sweep of random datasets and TreeParams grows
    // one tree each through a single reused TreeBuilder (so scratch
    // left dirty by one build shows up in a later one) and folds its
    // serialized bytes into the digest; every fifth dataset also
    // folds the predictions of a boosted and a bagged ensemble on
    // every row. minSamplesLeaf reaches 0, the only setting under
    // which a split at the last bin boundary could be admitted.
    static constexpr int kBins[] = {2, 3, 16, 32, 63, 64, 65, 100, 128};
    constexpr int kDatasets = 3000;

    Rng rng(20150);
    TreeBuilder builder;
    uint64_t digest = 0xcbf29ce484222325ULL;
    int splits = 0;
    for (int i = 0; i < kDatasets; ++i) {
        const DataSet data = sweepData(rng);
        TreeParams tp;
        tp.histogramBins = kBins[rng.index(std::size(kBins))];
        tp.minSamplesLeaf = static_cast<int>(rng.index(6));
        tp.treeComplexity = 1 + static_cast<int>(rng.index(12));
        if (rng.index(3) == 0) {
            tp.featureSubset =
                1 + static_cast<int>(rng.index(data.featureCount()));
        }
        tp.seed = rng.raw();

        RegressionTree tree(tp);
        builder.build(tree, DataView(data));
        splits += tree.splitCount();
        ByteWriter w;
        persist::ModelIo::writeModel(w, tree);
        digest = foldBytes(digest, w.bytes().data(), w.size());

        if (i % 5 != 0)
            continue;
        BoostParams bp;
        bp.maxTrees = 20;
        bp.treeComplexity = tp.treeComplexity;
        bp.convergencePatience = 0;
        bp.targetErrorPct = 0.0;
        bp.seed = rng.raw();
        GradientBoost gbrt(bp);
        gbrt.train(data);

        ForestParams fp;
        fp.treeCount = 8;
        fp.treeComplexity = tp.treeComplexity;
        fp.minSamplesLeaf = 1 + static_cast<int>(rng.index(3));
        fp.seed = rng.raw();
        RandomForest forest(fp);
        forest.train(data);

        for (size_t r = 0; r < data.size(); ++r) {
            const double *x = data.row(r);
            digest = foldDouble(digest,
                                gbrt.predict(x, data.featureCount()));
            digest = foldDouble(digest,
                                forest.predict(x, data.featureCount()));
        }
    }
    // The sweep must actually split, or the digest pins little.
    EXPECT_GT(splits, 4 * kDatasets);
    // Recorded from the full bin scan; a changed split decision, leaf
    // value or threshold anywhere in the sweep moves it.
    EXPECT_EQ(digest, 0x6502cb63f4fada65ULL);
}

TEST(Tree, InvalidParamsPanic)
{
    EXPECT_THROW(RegressionTree(TreeParams{.treeComplexity = 0}),
                 std::logic_error);
}

} // namespace
} // namespace dac::ml
