/**
 * @file
 * The corruption battery: decodeSnapshot replayed over EVERY
 * truncation length of a real snapshot image, plus single-bit and
 * whole-byte flips at deterministically sampled offsets. The loader
 * must answer each with a clean typed error — never crash, never
 * throw past its boundary, never accept damaged bytes. CI runs this
 * binary under ASan, which is what turns "never crash" from a hope
 * into a check.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "ml/boosting.h"
#include "ml/flat_ensemble.h"
#include "ml/hm.h"
#include "ml/log_target.h"
#include "persist/model_io.h"
#include "persist/snapshot.h"
#include "support/checksum.h"
#include "support/random.h"
#include "support/units.h"

namespace dac::persist {
namespace {

ml::DataSet
sampleData()
{
    ml::DataSet data(4);
    Rng rng(404);
    for (int i = 0; i < 24; ++i) {
        std::vector<double> x = {rng.uniform(), rng.uniform(),
                                 rng.uniform(), rng.uniform()};
        data.addRow(x, 10.0 + 20.0 * x[0] + 5.0 * x[1] * x[2]);
    }
    return data;
}

/** One real encoded snapshot (log-target GBRT + compiled ensemble,
 *  a few vectors) — every decoder branch is on its byte path. */
std::vector<uint8_t>
sampleImage()
{
    const ml::DataSet data = sampleData();
    ml::BoostParams params;
    params.maxTrees = 6;
    params.convergencePatience = 0;
    params.targetErrorPct = 0.0;
    params.targetIsLog = true;
    auto model = std::make_unique<ml::LogTargetModel>(
        std::make_unique<ml::GradientBoost>(params));
    model->train(data);
    const std::unique_ptr<ml::FlatEnsemble> compiled = model->compile();

    std::vector<core::PerfVector> vectors(3);
    for (size_t i = 0; i < vectors.size(); ++i) {
        vectors[i].timeSec = 5.0 + static_cast<double>(i);
        vectors[i].config = {0.1, 0.2, 0.3};
        vectors[i].dsizeBytes = GiB * static_cast<double>(i + 1);
    }

    const std::string workload = "TS";
    const std::string cluster = "paper-testbed";
    core::TunerOverhead overhead;
    overhead.trainingRuns = 24;

    SnapshotView view;
    view.workload = &workload;
    view.cluster = &cluster;
    view.sizeBand = 2;
    view.modelErrorPct = 7.5;
    view.overhead = &overhead;
    view.vectors = &vectors;
    view.model = model.get();
    view.compiled = compiled.get();
    return encodeSnapshot(view);
}

TEST(SnapshotCorruption, EveryTruncationFailsCleanly)
{
    const auto image = sampleImage();
    ASSERT_TRUE(decodeSnapshot(image.data(), image.size()).ok());

    for (size_t len = 0; len < image.size(); ++len) {
        const auto result = decodeSnapshot(image.data(), len);
        ASSERT_NE(result.error, SnapshotError::None)
            << "accepted a truncation to " << len << " bytes";
        ASSERT_EQ(result.snapshot.model, nullptr);
    }
}

TEST(SnapshotCorruption, SingleBitFlipsAlwaysRejected)
{
    auto image = sampleImage();

    // Every header bit, plus ~256 payload offsets sampled
    // deterministically across the image (a fixed stride hits every
    // section: strings, params, tree arrays, SoA arrays).
    std::vector<size_t> offsets;
    for (size_t i = 0; i < SnapshotHeader::kBytes; ++i)
        offsets.push_back(i);
    const size_t payloadLen = image.size() - SnapshotHeader::kBytes;
    const size_t samples = payloadLen < 256 ? payloadLen : 256;
    for (size_t s = 0; s < samples; ++s)
        offsets.push_back(SnapshotHeader::kBytes +
                          s * payloadLen / samples);

    for (const size_t at : offsets) {
        for (int bit = 0; bit < 8; ++bit) {
            const uint8_t mask = static_cast<uint8_t>(1u << bit);
            image[at] ^= mask;
            const auto result =
                decodeSnapshot(image.data(), image.size());
            ASSERT_NE(result.error, SnapshotError::None)
                << "accepted bit " << bit << " flipped at offset "
                << at;
            image[at] ^= mask;
        }
    }
    // The battery restored every flip: the image must decode again.
    EXPECT_TRUE(decodeSnapshot(image.data(), image.size()).ok());
}

TEST(SnapshotCorruption, WholeByteFlipsAlwaysRejected)
{
    auto image = sampleImage();
    Rng rng(1311);
    for (int i = 0; i < 256; ++i) {
        const size_t at = static_cast<size_t>(
            rng.uniform() * static_cast<double>(image.size()));
        const size_t offset = at < image.size() ? at : image.size() - 1;
        image[offset] ^= 0xFF;
        const auto result = decodeSnapshot(image.data(), image.size());
        ASSERT_NE(result.error, SnapshotError::None)
            << "accepted byte flipped at offset " << offset;
        image[offset] ^= 0xFF;
    }
    EXPECT_TRUE(decodeSnapshot(image.data(), image.size()).ok());
}

TEST(SnapshotCorruption, ArbitraryGarbageNeverCrashes)
{
    // Pure noise of assorted sizes, including sizes right around the
    // header boundary; the loader must type an error for all of them.
    Rng rng(77);
    const size_t sizes[] = {0,  1,  16, 31, 32,  33,
                            64, 96, 256, 4096, 65537};
    for (const size_t size : sizes) {
        std::vector<uint8_t> junk(size);
        for (auto &b : junk)
            b = static_cast<uint8_t>(rng.uniform() * 256.0);
        const auto result = decodeSnapshot(junk.data(), junk.size());
        EXPECT_NE(result.error, SnapshotError::None)
            << "accepted " << size << " bytes of noise";
    }
}

/** Image of `model` alone: no vectors, no compiled form. */
std::vector<uint8_t>
modelImage(const ml::Model &model)
{
    const std::string workload = "TS";
    const std::string cluster = "paper-testbed";
    const core::TunerOverhead overhead;
    const std::vector<core::PerfVector> vectors;
    SnapshotView view;
    view.workload = &workload;
    view.cluster = &cluster;
    view.overhead = &overhead;
    view.vectors = &vectors;
    view.model = &model;
    return encodeSnapshot(view);
}

void
putCrc(std::vector<uint8_t> &image, size_t at, uint32_t crc)
{
    for (size_t i = 0; i < 4; ++i)
        image[at + i] = static_cast<uint8_t>(crc >> (8 * i));
}

std::vector<uint8_t>
i32Bytes(int32_t v)
{
    ByteWriter w;
    w.i32(v);
    return w.take();
}

std::vector<uint8_t>
f64Bytes(double v)
{
    ByteWriter w;
    w.f64(v);
    return w.take();
}

TEST(SnapshotCorruption, OutOfRangeModelParamsRejectedAsCorrupt)
{
    // Checksum-valid images carrying model parameters that the ml
    // constructors reject by assertion. The loader must type them
    // Corrupt: an assertion escaping decodeSnapshot would take down
    // whatever restores snapshots (TuningService, dac_snap).
    const ml::DataSet data = sampleData();
    ml::RegressionTree tree(ml::TreeParams{.treeComplexity = 3});
    tree.train(data);
    ml::BoostParams bp;
    bp.maxTrees = 4;
    bp.convergencePatience = 0;
    bp.targetErrorPct = 0.0;
    ml::GradientBoost gbrt(bp);
    gbrt.train(data);
    ml::HmParams hp;
    hp.firstOrder = bp;
    hp.targetErrorPct = 0.0;
    hp.maxOrder = 2;
    ml::HierarchicalModel hm(hp);
    hm.train(data);

    // Byte offsets from each model's tag, in model_io.cc field order:
    // a tree is tag, treeComplexity, minSamplesLeaf, histogramBins...;
    // GBRT and HM bodies open with BoostParams (maxTrees, learningRate,
    // treeComplexity, ...: 45 bytes), and the GBRT's first tree follows
    // its baseline, error, metTarget and validation history.
    const size_t firstTree =
        1 + 45 + 8 + 8 + 1 + 4 + 8 * gbrt.validationHistory().size() + 4;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    struct Patch
    {
        const char *field;
        const ml::Model *model;
        size_t at;
        std::vector<uint8_t> from;
        std::vector<uint8_t> to;
    };
    const Patch patches[] = {
        {"tree treeComplexity 0", &tree, 1, i32Bytes(3), i32Bytes(0)},
        {"tree treeComplexity -1", &tree, 1, i32Bytes(3), i32Bytes(-1)},
        {"tree histogramBins 1", &tree, 9, i32Bytes(32), i32Bytes(1)},
        {"tree histogramBins 0", &tree, 9, i32Bytes(32), i32Bytes(0)},
        {"GBRT first tree histogramBins 1", &gbrt, firstTree + 8,
         i32Bytes(32), i32Bytes(1)},
        {"GBRT maxTrees 0", &gbrt, 1, i32Bytes(4), i32Bytes(0)},
        {"GBRT learningRate 0", &gbrt, 5, f64Bytes(0.05), f64Bytes(0.0)},
        {"GBRT learningRate -0.5", &gbrt, 5, f64Bytes(0.05),
         f64Bytes(-0.5)},
        {"GBRT learningRate 1.5", &gbrt, 5, f64Bytes(0.05),
         f64Bytes(1.5)},
        {"GBRT learningRate NaN", &gbrt, 5, f64Bytes(0.05),
         f64Bytes(nan)},
        {"GBRT treeComplexity 0", &gbrt, 13, i32Bytes(5), i32Bytes(0)},
        {"HM first-order maxTrees 0", &hm, 1, i32Bytes(4), i32Bytes(0)},
        {"HM maxOrder 0", &hm, 1 + 45 + 8, i32Bytes(2), i32Bytes(0)},
        {"HM maxOrder -7", &hm, 1 + 45 + 8, i32Bytes(2), i32Bytes(-7)},
    };
    for (const Patch &p : patches) {
        auto image = modelImage(*p.model);
        ASSERT_TRUE(decodeSnapshot(image.data(), image.size()).ok())
            << p.field;
        ByteWriter w;
        ModelIo::writeModel(w, *p.model);
        const auto model = std::search(image.begin(), image.end(),
                                       w.bytes().begin(), w.bytes().end());
        ASSERT_NE(model, image.end()) << p.field;
        const auto field = model + static_cast<ptrdiff_t>(p.at);
        ASSERT_TRUE(std::equal(p.from.begin(), p.from.end(), field))
            << p.field << ": offset does not hold the field";
        std::copy(p.to.begin(), p.to.end(), field);
        putCrc(image, 16,
               crc32c(image.data() + SnapshotHeader::kBytes,
                      image.size() - SnapshotHeader::kBytes));
        putCrc(image, 28, crc32c(image.data(), 28));

        SnapshotLoadResult result;
        ASSERT_NO_THROW(result = decodeSnapshot(image.data(), image.size()))
            << p.field;
        EXPECT_EQ(result.error, SnapshotError::Corrupt)
            << p.field << ": " << snapshotErrorName(result.error);
        EXPECT_EQ(result.snapshot.model, nullptr) << p.field;
    }
}

} // namespace
} // namespace dac::persist
