/**
 * @file
 * The corruption battery: decodeSnapshot replayed over EVERY
 * truncation length of a real snapshot image, plus single-bit and
 * whole-byte flips at deterministically sampled offsets. The loader
 * must answer each with a clean typed error — never crash, never
 * throw past its boundary, never accept damaged bytes. CI runs this
 * binary under ASan, which is what turns "never crash" from a hope
 * into a check.
 *
 * The payload CRC stops every one of those flips before the structural
 * decoder runs, so a second battery reseals both CRCs after each
 * mutation of the golden fixtures' payloads: what the decoder (and the
 * compile behind it) then accepts must compile to an ensemble that
 * predicts the interpreted model's bits. Hand-built, checksum-valid
 * images cover the three shapes compile() cannot take: a booster with
 * no trees, a tree whose node has two parents, and a log-target
 * wrapping a log-target.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
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
#include "support/mapped_file.h"
#include "support/random.h"
#include "support/units.h"

#ifndef DAC_PERSIST_DATA_DIR
#error "build must define DAC_PERSIST_DATA_DIR"
#endif

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

/** One real encoded snapshot (log-target GBRT, a few vectors) —
 *  every decoder branch is on its byte path. */
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

/** Image of `model` alone: no vectors. */
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

/** `model` as writeModel encodes it (tag first). */
std::vector<uint8_t>
modelBytes(const ml::Model &model)
{
    ByteWriter w;
    ModelIo::writeModel(w, model);
    return w.take();
}

/** Rewrite the header's payload length and both CRCs to match the
 *  (mutated) payload, so the structural decoder is what judges it. */
void
reseal(std::vector<uint8_t> &image)
{
    const auto put = [&image](size_t at, uint64_t v, size_t bytes) {
        for (size_t i = 0; i < bytes; ++i)
            image[at + i] = static_cast<uint8_t>(v >> (8 * i));
    };
    const size_t payloadLen = image.size() - SnapshotHeader::kBytes;
    put(8, payloadLen, 8);
    put(16, crc32c(image.data() + SnapshotHeader::kBytes, payloadLen), 4);
    put(28, crc32c(image.data(), 28), 4);
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
        const auto bytes = modelBytes(*p.model);
        const auto model = std::search(image.begin(), image.end(),
                                       bytes.begin(), bytes.end());
        ASSERT_NE(model, image.end()) << p.field;
        const auto field = model + static_cast<ptrdiff_t>(p.at);
        ASSERT_TRUE(std::equal(p.from.begin(), p.from.end(), field))
            << p.field << ": offset does not hold the field";
        std::copy(p.to.begin(), p.to.end(), field);
        reseal(image);

        SnapshotLoadResult result;
        ASSERT_NO_THROW(result = decodeSnapshot(image.data(), image.size()))
            << p.field;
        EXPECT_EQ(result.error, SnapshotError::Corrupt)
            << p.field << ": " << snapshotErrorName(result.error);
        EXPECT_EQ(result.snapshot.model, nullptr) << p.field;
    }
}


/**
 * A checksum-valid image whose model is `model` bytes: the image of
 * `carrier` with its model bytes (the payload's tail) replaced.
 */
std::vector<uint8_t>
imageWithModel(const ml::Model &carrier, const std::vector<uint8_t> &model)
{
    auto image = modelImage(carrier);
    const auto old = modelBytes(carrier);
    EXPECT_TRUE(std::equal(old.begin(), old.end(),
                           image.end() - static_cast<ptrdiff_t>(old.size())))
        << "the model is not the payload's tail";
    image.resize(image.size() - old.size());
    image.insert(image.end(), model.begin(), model.end());
    reseal(image);
    return image;
}

/** Decode must type `image` Corrupt: no throw, no model. */
void
expectCorrupt(const std::vector<uint8_t> &image, const std::string &what)
{
    SnapshotLoadResult result;
    ASSERT_NO_THROW(result = decodeSnapshot(image.data(), image.size()))
        << what;
    EXPECT_EQ(result.error, SnapshotError::Corrupt)
        << what << ": " << snapshotErrorName(result.error) << " "
        << result.message;
    EXPECT_EQ(result.snapshot.model, nullptr) << what;
}

ml::BoostParams
smallBoost()
{
    ml::BoostParams bp;
    bp.maxTrees = 4;
    bp.convergencePatience = 0;
    bp.targetErrorPct = 0.0;
    return bp;
}

TEST(SnapshotCorruption, ZeroTreeBoosterIsCorrupt)
{
    // An untrained booster encodes with zero trees; compile() asserts
    // on it, so the decoder must stop it — on its own and as an HM
    // member.
    const ml::GradientBoost empty(smallBoost());
    expectCorrupt(modelImage(empty), "zero-tree GBRT");

    ml::GradientBoost trained(smallBoost());
    trained.train(sampleData());
    ml::HmParams hp;
    hp.firstOrder = smallBoost();
    const ml::HierarchicalModel untrainedHm(hp);
    // An untrained HM's body ends with its member count (0). Make it
    // one member, weight 1, holding `member`'s untagged body.
    const auto hmWithMember = [&](const ml::GradientBoost &member) {
        auto bytes = modelBytes(untrainedHm);
        bytes.resize(bytes.size() - 4);
        ByteWriter w;
        w.u32(1);
        w.f64(1.0);
        const auto body = modelBytes(member);
        bytes.insert(bytes.end(), w.bytes().begin(), w.bytes().end());
        bytes.insert(bytes.end(), body.begin() + 1, body.end());
        return imageWithModel(empty, bytes);
    };
    const auto control = hmWithMember(trained);
    const auto ok = decodeSnapshot(control.data(), control.size());
    ASSERT_TRUE(ok.ok()) << ok.message;
    ASSERT_NE(ok.snapshot.compiled, nullptr);
    expectCorrupt(hmWithMember(empty), "HM member with zero trees");
}

TEST(SnapshotCorruption, DagShapedTreeIsCorrupt)
{
    // Rewrite one split's child link to another split's child: every
    // link still points forward and in range, but that child now has
    // two parents (and the old child none). compile() copies a shared
    // child's subtree once per path to it, so a chain of such nodes
    // grows exponentially; the decoder must reject the first one.
    ml::GradientBoost gbrt(smallBoost());
    gbrt.train(sampleData());
    const auto image = modelImage(gbrt);
    ASSERT_TRUE(decodeSnapshot(image.data(), image.size()).ok());
    const auto model = modelBytes(gbrt);
    // Tag, BoostParams (45 bytes), baseline, error, metTarget,
    // history, tree count; then the first tree's TreeParams (24 bytes)
    // and node count; then 28-byte nodes {feature, threshold, value,
    // left, right}.
    const size_t nodes = 1 + 45 + 8 + 8 + 1 + 4 +
                         8 * gbrt.validationHistory().size() + 4 + 24 + 4;
    const auto i32At = [&model](size_t at) {
        ByteReader r(model.data() + at, 4);
        return r.i32();
    };
    const int32_t nodeCount = i32At(nodes - 4);
    const auto field = [&](int32_t node, size_t at) {
        return i32At(nodes + 28 * static_cast<size_t>(node) + at);
    };
    const size_t kFeature = 0;
    const size_t kLeft = 20;
    const size_t kRight = 24;
    for (int32_t q = 1; q < nodeCount; ++q) {
        if (field(q, kFeature) < 0)
            continue; // q must be a split
        for (int32_t p = 0; p < nodeCount; ++p) {
            if (p == q || field(p, kFeature) < 0)
                continue;
            const int32_t c = field(p, kLeft);
            if (c <= q || c == field(q, kLeft) || c == field(q, kRight))
                continue;
            auto dag = model;
            const auto link = i32Bytes(c);
            std::copy(link.begin(), link.end(),
                      dag.begin() + static_cast<ptrdiff_t>(
                                        nodes + 28 * static_cast<size_t>(q) +
                                        kLeft));
            expectCorrupt(imageWithModel(gbrt, dag),
                          "node " + std::to_string(c) +
                              " linked by splits " + std::to_string(p) +
                              " and " + std::to_string(q));
            return;
        }
    }
    FAIL() << "no split pair to rewrite in a " << nodeCount
           << "-node tree";
}

TEST(SnapshotCorruption, LogTargetWrappingLogTargetIsCorrupt)
{
    // compile() folds exactly one exp(); a doubled wrapper is Corrupt,
    // however deep the run of wrapper tags.
    ml::GradientBoost gbrt(smallBoost());
    gbrt.train(sampleData());
    auto once = modelBytes(gbrt);
    once.insert(once.begin(), 4); // the log-target tag
    const auto control = imageWithModel(gbrt, once);
    const auto ok = decodeSnapshot(control.data(), control.size());
    ASSERT_TRUE(ok.ok()) << ok.message;
    ASSERT_NE(ok.snapshot.compiled, nullptr);
    EXPECT_TRUE(ok.snapshot.compiled->expOutput());

    for (const size_t wrappers : {size_t{2}, size_t{3}, size_t{100000}}) {
        auto model = modelBytes(gbrt);
        model.insert(model.begin(), wrappers, 4);
        expectCorrupt(imageWithModel(gbrt, model),
                      std::to_string(wrappers) + " log-target tags");
    }
}

std::vector<uint8_t>
readFixture(const std::string &name)
{
    MappedFile file;
    std::string error;
    EXPECT_TRUE(file.open(std::string(DAC_PERSIST_DATA_DIR) + "/" + name,
                          &error))
        << name << ": " << error;
    return {file.data(), file.data() + file.size()};
}

/** True when `got` is `want` to the bit, or both are NaN. */
bool
sameBits(double got, double want)
{
    return std::bit_cast<uint64_t>(got) == std::bit_cast<uint64_t>(want) ||
           (std::isnan(got) && std::isnan(want));
}

TEST(SnapshotCorruption, ResealedPayloadMutationsAreTypedOrExact)
{
    // Every payload byte of both fixtures set to 0x00, to 0xff, and
    // each of its bits flipped, with both CRCs resealed. Each image
    // must decode to a typed error or to an entry whose compiled form
    // predicts the interpreted model's bits on every probe row it can
    // score.
    const double inf = std::numeric_limits<double>::infinity();
    const std::vector<std::vector<double>> probes = {
        {0.10, 0.90, 0.50, 0.25, 0.75},
        {0.00, 0.00, 0.00, 0.00, 0.00},
        {1.00, 1.00, 1.00, 1.00, 1.00},
        {-0.50, 2.00, 0.33, 0.66, 0.01},
        {0.42, 0.17, 0.89, 0.03, 0.58},
        {-inf, inf, std::numeric_limits<double>::quiet_NaN(), 0.5, 1e300},
    };
    for (const char *name : {"golden_gbrt.dacsnap", "golden_hm.dacsnap"}) {
        auto image = readFixture(name);
        ASSERT_TRUE(decodeSnapshot(image.data(), image.size()).ok())
            << name;
        size_t accepted = 0;
        size_t mismatched = 0;
        for (size_t at = SnapshotHeader::kBytes; at < image.size(); ++at) {
            const uint8_t original = image[at];
            std::vector<uint8_t> values = {0x00, 0xff};
            for (int bit = 0; bit < 8; ++bit)
                values.push_back(static_cast<uint8_t>(original ^ (1u << bit)));
            for (const uint8_t value : values) {
                if (value == original)
                    continue;
                image[at] = value;
                reseal(image);
                SnapshotLoadResult result;
                ASSERT_NO_THROW(result =
                                    decodeSnapshot(image.data(), image.size()))
                    << name << " offset " << at << " = " << int(value);
                if (!result.ok())
                    continue;
                ++accepted;
                const auto &snap = result.snapshot;
                ASSERT_NE(snap.model, nullptr);
                if (snap.compiled == nullptr)
                    continue; // a bare tree: nothing compiled to compare
                for (const auto &row : probes) {
                    if (row.size() < snap.compiled->minFeatureCount())
                        continue;
                    const double want =
                        snap.model->predict(row.data(), row.size());
                    if (!sameBits(snap.compiled->predictSerial(
                                      row.data(), row.size()),
                                  want) ||
                        !sameBits(snap.compiled->predict(row.data(),
                                                         row.size()),
                                  want)) {
                        ++mismatched;
                        ADD_FAILURE()
                            << name << " offset " << at << " = "
                            << int(value) << ": compiled form disagrees "
                            << "with the interpreted model";
                        break;
                    }
                }
            }
            image[at] = original;
        }
        reseal(image);
        EXPECT_EQ(mismatched, 0u) << name << ", " << accepted
                                  << " mutation(s) accepted";
        EXPECT_TRUE(decodeSnapshot(image.data(), image.size()).ok());
    }
}

} // namespace
} // namespace dac::persist
