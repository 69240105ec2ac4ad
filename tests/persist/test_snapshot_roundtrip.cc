/**
 * @file
 * The persistence property battery: 1000 seeded (workload, datasize,
 * model-kind) cases, each trained, snapshotted, reloaded, and proven
 * bit-identical — the invariant the whole subsystem exists to keep.
 *
 * Per case:
 *  - the reloaded interpreted model predicts bit-identically to the
 *    original on every probe row;
 *  - the reloaded compiled ensemble agrees to the bit through the
 *    serial reference walk, the blocked walk and the batch walk;
 *  - re-encoding the reloaded snapshot reproduces the original bytes
 *    exactly (snapshot-of-reload idempotence).
 *
 * Models are deliberately small (24-48 rows, <= 8 trees) so a
 * thousand train cycles stay inside the suite's time budget; format
 * coverage comes from the kind mix (GBRT, HM, each bare and
 * log-target wrapped), not model size.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ml/boosting.h"
#include "ml/flat_ensemble.h"
#include "ml/hm.h"
#include "ml/log_target.h"
#include "persist/snapshot.h"
#include "support/random.h"

namespace dac::persist {
namespace {

using ml::DataSet;

constexpr size_t kCases = 1000;
constexpr size_t kFeatures = 5; // 4 config values + dsize

/** Deterministic positive-target training rows (log-target safe). */
DataSet
trainingData(size_t rows, uint64_t seed)
{
    DataSet d(kFeatures);
    Rng rng(seed);
    for (size_t i = 0; i < rows; ++i) {
        std::vector<double> x(kFeatures);
        for (auto &v : x)
            v = rng.uniform();
        double y = 20.0 + 30.0 * x[0] + 10.0 * x[1] * x[2] +
                   5.0 * (x[3] > 0.5 ? x[4] : -x[4]);
        y += rng.normal(0.0, 0.5);
        if (y < 1.0)
            y = 1.0;
        d.addRow(x, y);
    }
    return d;
}

std::unique_ptr<ml::Model>
makeModel(uint64_t seed)
{
    ml::BoostParams bp;
    bp.maxTrees = 4 + static_cast<int>(seed % 5); // 4..8
    bp.convergencePatience = 0;
    bp.targetErrorPct = 0.0; // grow every tree
    bp.seed = seed;

    ml::HmParams hp;
    hp.firstOrder = bp;
    hp.firstOrder.maxTrees = 4;
    hp.targetErrorPct = 1.0; // push past first order
    hp.maxOrder = 2;
    hp.seed = seed;

    switch (seed % 4) {
    case 0:
        return std::make_unique<ml::GradientBoost>(bp);
    case 1: {
        bp.targetIsLog = true;
        return std::make_unique<ml::LogTargetModel>(
            std::make_unique<ml::GradientBoost>(bp));
    }
    case 2:
        return std::make_unique<ml::HierarchicalModel>(hp);
    default: {
        hp.firstOrder.targetIsLog = true;
        hp.targetIsLog = true;
        return std::make_unique<ml::LogTargetModel>(
            std::make_unique<ml::HierarchicalModel>(hp));
    }
    }
}

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

TEST(SnapshotRoundtrip, ThousandSeededCasesBitIdentical)
{
    const char *workloads[] = {"TS", "WC", "KM", "PR"};

    for (uint64_t seed = 1; seed <= kCases; ++seed) {
        SCOPED_TRACE("case seed " + std::to_string(seed));
        Rng rng(seed * 977);
        const size_t rows = 24 + seed % 25; // 24..48 (HM needs >= 20)

        auto model = makeModel(seed);
        const DataSet data = trainingData(rows, seed * 31 + 7);
        model->train(data);
        const std::shared_ptr<const ml::FlatEnsemble> compiled(
            model->compile());
        ASSERT_NE(compiled, nullptr);

        // The training matrix doubles as the persisted vectors.
        std::vector<core::PerfVector> vectors(rows);
        for (size_t i = 0; i < rows; ++i) {
            const double *row = data.row(i);
            vectors[i].timeSec = data.target(i);
            vectors[i].config.assign(row, row + kFeatures - 1);
            vectors[i].dsizeBytes = row[kFeatures - 1];
        }

        const std::string workload = workloads[seed % 4];
        const std::string cluster = "paper-testbed";
        core::TunerOverhead overhead;
        overhead.collectingHours = rng.uniform();
        overhead.modelingSec = rng.uniform();
        overhead.searchingSec = rng.uniform();
        overhead.trainingRuns = rows;

        SnapshotView view;
        view.workload = &workload;
        view.cluster = &cluster;
        view.sizeBand = static_cast<int>(seed % 6);
        view.modelErrorPct = rng.uniform() * 15.0;
        view.overhead = &overhead;
        view.vectors = &vectors;
        view.model = model.get();
        view.compiled = compiled.get();

        const auto image = encodeSnapshot(view);
        const auto result = decodeSnapshot(image.data(), image.size());
        ASSERT_TRUE(result.ok())
            << snapshotErrorName(result.error) << ": " << result.message;
        const auto &snap = result.snapshot;

        // Metadata survives exactly.
        EXPECT_EQ(snap.workload, workload);
        EXPECT_EQ(snap.cluster, cluster);
        EXPECT_EQ(snap.sizeBand, view.sizeBand);
        EXPECT_EQ(bits(snap.modelErrorPct), bits(view.modelErrorPct));
        ASSERT_EQ(snap.vectors.size(), vectors.size());
        for (size_t i = 0; i < vectors.size(); ++i) {
            EXPECT_EQ(bits(snap.vectors[i].timeSec),
                      bits(vectors[i].timeSec));
            EXPECT_EQ(bits(snap.vectors[i].dsizeBytes),
                      bits(vectors[i].dsizeBytes));
            ASSERT_EQ(snap.vectors[i].config.size(),
                      vectors[i].config.size());
        }
        ASSERT_NE(snap.model, nullptr);
        ASSERT_NE(snap.compiled, nullptr);

        // Bit-identical predictions: interpreted, every walk, batch.
        const size_t probes = 8;
        std::vector<double> flatRows(probes * kFeatures);
        for (auto &v : flatRows)
            v = rng.uniform() * 3.0 - 1.0;
        std::vector<double> wantBatch(probes);
        std::vector<double> gotBatch(probes);
        for (size_t i = 0; i < probes; ++i) {
            const double *x = flatRows.data() + i * kFeatures;
            const double want = model->predict(x, kFeatures);
            EXPECT_EQ(bits(snap.model->predict(x, kFeatures)),
                      bits(want));
            EXPECT_EQ(bits(snap.compiled->predictSerial(x, kFeatures)),
                      bits(want))
                << "serial walk, probe " << i;
            EXPECT_EQ(bits(snap.compiled->predict(x, kFeatures)),
                      bits(want))
                << "blocked walk, probe " << i;
            wantBatch[i] = want;
        }
        snap.compiled->predictBatch(flatRows.data(), kFeatures, probes,
                                    gotBatch.data());
        for (size_t i = 0; i < probes; ++i)
            EXPECT_EQ(bits(gotBatch[i]), bits(wantBatch[i]))
                << "batch row " << i;

        // Snapshot-of-reload idempotence: byte-identical re-encode.
        const auto reencoded = encodeSnapshot(viewOf(snap));
        ASSERT_EQ(reencoded.size(), image.size());
        EXPECT_TRUE(reencoded == image);
    }
}

} // namespace
} // namespace dac::persist
