/**
 * @file
 * The compiled walks: bit-identity of the serial reference walk
 * (predictSerial), the eight-lane blocked walk (predict) and the
 * row-interleaved batch walk (both predictBatch overloads) against
 * the interpreted model, and concurrent predictBatch on a shared
 * FlatEnsemble — the exact access pattern the GA's batch objective
 * and the service warm path produce, and what the TSan CI leg checks
 * for ordering bugs.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <thread>
#include <vector>

#include "ml/boosting.h"
#include "ml/flat_ensemble.h"
#include "ml/hm.h"
#include "ml/log_target.h"
#include "service/thread_pool.h"

namespace dac::ml {
namespace {

DataSet
bumpyData(int n, uint64_t seed)
{
    DataSet d(5);
    Rng rng(seed);
    for (int i = 0; i < n; ++i) {
        const double a = rng.uniform();
        const double b = rng.uniform();
        const double c = rng.uniform();
        const double e = rng.uniform();
        const double f = rng.uniform();
        double y = 25.0 + 12.0 * std::sin(8.0 * a) * std::cos(6.0 * b);
        y += (c > 0.5 ? 10.0 * e : 3.0 * f);
        y += rng.normal(0.0, 0.4);
        d.addRow({a, b, c, e, f}, y);
    }
    return d;
}

std::vector<std::vector<double>>
randomQueries(size_t count, size_t width, uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::vector<double>> queries(count);
    for (auto &q : queries) {
        q.resize(width);
        for (auto &v : q)
            v = rng.uniform() * 3.0 - 1.0;
    }
    return queries;
}

/** Every walk must reproduce the interpreted prediction
 *  bit-for-bit — the contract DESIGN.md section 14 pins. The batch
 *  walks see every query at once, so query counts that are not a
 *  multiple of the 16-row chunk also cover the single-row tail. */
void
expectWalksExact(const Model &model, const FlatEnsemble &flat,
                 const std::vector<std::vector<double>> &queries)
{
    const size_t width = queries.front().size();
    std::vector<double> expected;
    std::vector<const double *> rowPtrs;
    std::vector<double> packed;
    for (const auto &q : queries) {
        const double interpreted = model.predict(q);
        EXPECT_EQ(interpreted, flat.predictSerial(q.data(), q.size()));
        EXPECT_EQ(interpreted, flat.predict(q.data(), q.size()));
        expected.push_back(interpreted);
        rowPtrs.push_back(q.data());
        packed.insert(packed.end(), q.begin(), q.end());
    }
    std::vector<double> viaPtrs(queries.size(), 0.0);
    flat.predictBatch(rowPtrs.data(), rowPtrs.size(), width,
                      viaPtrs.data());
    EXPECT_EQ(viaPtrs, expected);
    std::vector<double> viaStride(queries.size(), 0.0);
    flat.predictBatch(packed.data(), width, queries.size(),
                      viaStride.data());
    EXPECT_EQ(viaStride, expected);
}

TEST(SimdWalk, AllKernelsMatchGradientBoostExactly)
{
    for (uint64_t seed = 1; seed <= 3; ++seed) {
        BoostParams p;
        p.maxTrees = 70;
        p.convergencePatience = 0;
        p.targetErrorPct = 0.0;
        p.seed = seed;
        GradientBoost gb(p);
        gb.train(bumpyData(300, seed));
        const auto flat = gb.compile();
        ASSERT_NE(flat, nullptr);
        expectWalksExact(gb, *flat,
                           randomQueries(64, 5, seed + 200));
    }
}

TEST(SimdWalk, AllKernelsMatchLogTargetModelExactly)
{
    // exp() sits after the walk, so the per-walk raw sums must
    // already agree before exponentiation can.
    HmParams p;
    p.firstOrder.maxTrees = 60;
    p.firstOrder.convergencePatience = 30;
    p.firstOrder.targetIsLog = true;
    p.targetErrorPct = 5.0;
    p.targetIsLog = true;
    LogTargetModel model(std::make_unique<HierarchicalModel>(p));
    model.train(bumpyData(300, 6));
    const auto flat = model.compile();
    ASSERT_NE(flat, nullptr);
    EXPECT_TRUE(flat->expOutput());
    expectWalksExact(model, *flat, randomQueries(64, 5, 7));
}

TEST(SimdWalk, AllKernelsMatchOnSingleLeafTrees)
{
    // Constant target -> every tree is a single self-looping leaf:
    // the degenerate blocks where a lock-step walk's step count is 0.
    DataSet d(3);
    Rng rng(9);
    for (int i = 0; i < 50; ++i)
        d.addRow({rng.uniform(), rng.uniform(), rng.uniform()}, 42.0);
    BoostParams p;
    p.maxTrees = 5;
    p.convergencePatience = 0;
    p.targetErrorPct = 0.0;
    GradientBoost gb(p);
    gb.train(d);
    const auto flat = gb.compile();
    ASSERT_NE(flat, nullptr);
    EXPECT_EQ(flat->nodeCount(), flat->treeCount());
    expectWalksExact(gb, *flat, randomQueries(16, 3, 10));
}

TEST(SimdWalk, AllKernelsMatchOnThresholdBoundaryQueries)
{
    // Train on a coarse grid so split thresholds land between (or at)
    // grid values, then query the exact grid points: x == threshold
    // ties and the NaN-goes-right convention must resolve identically
    // in every walk (the comparison is !(x <= t) in all of them).
    DataSet d(3);
    const double grid[] = {0.0, 0.25, 0.5, 0.75, 1.0};
    for (const double a : grid)
        for (const double b : grid)
            for (const double c : grid)
                d.addRow({a, b, c}, 3.0 * a + (b > 0.5 ? 7.0 : 1.0) * c);

    BoostParams p;
    p.maxTrees = 40;
    p.convergencePatience = 0;
    p.targetErrorPct = 0.0;
    GradientBoost gb(p);
    gb.train(d);
    const auto flat = gb.compile();
    ASSERT_NE(flat, nullptr);

    std::vector<std::vector<double>> queries;
    for (const double a : grid)
        for (const double b : grid)
            queries.push_back({a, b, 0.5});
    // And a NaN lane: must take the right child at every split, same
    // as the interpreted walk.
    queries.push_back({std::nan(""), 0.5, std::nan("")});
    expectWalksExact(gb, *flat, queries);
}

TEST(SimdWalk, ParallelPredictBatchSharedEnsemble)
{
    // One immutable FlatEnsemble, hammered concurrently: N threads
    // each running executor-parallel predictBatch over their own rows
    // (the walk scratch is per-call stack state, so the only shared
    // data is the const node arrays). Run under the TSan CI leg.
    BoostParams p;
    p.maxTrees = 60;
    p.convergencePatience = 0;
    p.targetErrorPct = 0.0;
    GradientBoost gb(p);
    gb.train(bumpyData(300, 18));
    const auto flat = gb.compile();
    ASSERT_NE(flat, nullptr);

    constexpr size_t kThreads = 4;
    constexpr size_t kRows = 300;
    service::ThreadPool pool(4);

    std::vector<std::vector<double>> rows(kThreads);
    std::vector<std::vector<double>> expected(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        Rng rng(100 + t);
        rows[t].resize(kRows * 5);
        for (double &v : rows[t])
            v = rng.uniform() * 3.0 - 1.0;
        expected[t].resize(kRows);
        for (size_t r = 0; r < kRows; ++r)
            expected[t][r] = gb.predict(rows[t].data() + r * 5, 5);
    }

    std::vector<std::vector<double>> got(
        kThreads, std::vector<double>(kRows, 0.0));
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (int repeat = 0; repeat < 8; ++repeat) {
                flat->predictBatch(rows[t].data(), 5, kRows,
                                   got[t].data(), &pool);
            }
        });
    }
    for (auto &w : workers)
        w.join();
    for (size_t t = 0; t < kThreads; ++t)
        EXPECT_EQ(got[t], expected[t]) << "thread " << t;
}

} // namespace
} // namespace dac::ml
