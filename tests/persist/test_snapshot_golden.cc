/**
 * @file
 * Golden snapshot fixtures: files committed under tests/persist/data/
 * pin the on-disk format. If an encoder change alters the bytes, or a
 * reader change alters what the bytes mean, these tests fail — which
 * is the prompt to bump kSnapshotVersion rather than silently break
 * every snapshot in the field.
 *
 *  - golden_gbrt.dacsnap: a plain GBRT (no exp() on the output path,
 *    so the expected bits hold on any libm). Its companion
 *    golden_gbrt.expected records probe predictions as IEEE-754 bit
 *    patterns; the current reader must reproduce every one.
 *  - golden_hm.dacsnap: a log-target HM exercising the full format
 *    (members, wrapper); pinned by byte-identical re-encode rather
 *    than prediction bits.
 *  - v1_gbrt.dacsnap: golden_gbrt.dacsnap as format version 1 wrote
 *    it (the compiled ensemble stored after the model). The current
 *    reader must call it stale, BadVersion, so the cache evicts it.
 *
 * Header-damage cases (bumped version, wrong checksum) reseal the
 * header CRC after mutating, so the mutation under test is what the
 * loader rejects — not the stale CRC in front of it.
 *
 * Regenerating (after an intentional format bump):
 *   DAC_REGEN_GOLDEN=1 ./test_persist --gtest_filter='SnapshotGolden.*'
 * then commit the rewritten files under tests/persist/data/.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "ml/boosting.h"
#include "ml/flat_ensemble.h"
#include "ml/hm.h"
#include "ml/log_target.h"
#include "persist/snapshot.h"
#include "support/checksum.h"
#include "support/mapped_file.h"
#include "support/random.h"

#ifndef DAC_PERSIST_DATA_DIR
#error "build must define DAC_PERSIST_DATA_DIR"
#endif

namespace dac::persist {
namespace {

const std::string kDataDir = DAC_PERSIST_DATA_DIR;

/** Probe rows (4 config values + dsize), fixed literals so the
 *  expected-bits file means the same thing forever. */
std::vector<std::vector<double>>
probeRows()
{
    return {
        {0.10, 0.90, 0.50, 0.25, 0.75},
        {0.00, 0.00, 0.00, 0.00, 0.00},
        {1.00, 1.00, 1.00, 1.00, 1.00},
        {-0.50, 2.00, 0.33, 0.66, 0.01},
        {0.42, 0.17, 0.89, 0.03, 0.58},
        {2.00, -1.00, 0.50, 1.50, -0.25},
    };
}

ml::DataSet
goldenData(uint64_t seed)
{
    ml::DataSet data(5);
    Rng rng(seed);
    for (int i = 0; i < 40; ++i) {
        std::vector<double> x(5);
        for (auto &v : x)
            v = rng.uniform();
        data.addRow(x, 15.0 + 25.0 * x[0] + 8.0 * x[1] * x[2] +
                           4.0 * x[3] - 3.0 * x[4]);
    }
    return data;
}

std::vector<uint8_t>
encodeGolden(const ml::Model &model, const std::string &workload)
{
    std::vector<core::PerfVector> vectors(2);
    vectors[0] = {12.5, {0.1, 0.2, 0.3, 0.4}, 4e10};
    vectors[1] = {18.25, {0.5, 0.6, 0.7, 0.8}, 8e10};
    const std::string cluster = "paper-testbed";
    core::TunerOverhead overhead;
    overhead.collectingHours = 1.5;
    overhead.modelingSec = 2.25;
    overhead.searchingSec = 3.125;
    overhead.trainingRuns = 40;

    SnapshotView view;
    view.workload = &workload;
    view.cluster = &cluster;
    view.sizeBand = 3;
    view.modelErrorPct = 6.25;
    view.overhead = &overhead;
    view.vectors = &vectors;
    view.model = &model;
    return encodeSnapshot(view);
}

std::unique_ptr<ml::Model>
goldenGbrt()
{
    ml::BoostParams params;
    params.maxTrees = 8;
    params.convergencePatience = 0;
    params.targetErrorPct = 0.0;
    params.seed = 2024;
    auto model = std::make_unique<ml::GradientBoost>(params);
    model->train(goldenData(61));
    return model;
}

std::unique_ptr<ml::Model>
goldenHm()
{
    ml::HmParams params;
    params.firstOrder.maxTrees = 6;
    params.firstOrder.convergencePatience = 0;
    params.firstOrder.targetIsLog = true;
    params.targetErrorPct = 1.0;
    params.maxOrder = 2;
    params.targetIsLog = true;
    params.seed = 2025;
    auto model = std::make_unique<ml::LogTargetModel>(
        std::make_unique<ml::HierarchicalModel>(params));
    model->train(goldenData(62));
    return model;
}

bool
regenRequested()
{
    const char *env = std::getenv("DAC_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/** Write the fixture pair; returns the expected-bits lines written. */
void
regenerate()
{
    const auto gbrt = goldenGbrt();
    const auto gbrtImage = encodeGolden(*gbrt, "TS");
    std::string error;
    ASSERT_TRUE(atomicWriteFile(kDataDir + "/golden_gbrt.dacsnap",
                                gbrtImage.data(), gbrtImage.size(),
                                &error))
        << error;
    std::ofstream expected(kDataDir + "/golden_gbrt.expected");
    ASSERT_TRUE(expected.is_open());
    for (const auto &row : probeRows()) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "0x%016llx",
                      static_cast<unsigned long long>(
                          std::bit_cast<uint64_t>(
                              gbrt->predict(row.data(), row.size()))));
        expected << buf << "\n";
    }

    const auto hm = goldenHm();
    const auto hmImage = encodeGolden(*hm, "KM");
    ASSERT_TRUE(atomicWriteFile(kDataDir + "/golden_hm.dacsnap",
                                hmImage.data(), hmImage.size(), &error))
        << error;
}

std::vector<uint8_t>
readFixture(const std::string &name)
{
    MappedFile file;
    std::string error;
    EXPECT_TRUE(file.open(kDataDir + "/" + name, &error))
        << name << ": " << error
        << " (regenerate with DAC_REGEN_GOLDEN=1)";
    return {file.data(), file.data() + file.size()};
}

void
resealHeaderCrc(std::vector<uint8_t> &image)
{
    const uint32_t crc = crc32c(image.data(), 28);
    for (int i = 0; i < 4; ++i)
        image[28 + static_cast<size_t>(i)] =
            static_cast<uint8_t>(crc >> (8 * i));
}

TEST(SnapshotGolden, RegenerateWhenAsked)
{
    if (!regenRequested())
        GTEST_SKIP() << "set DAC_REGEN_GOLDEN=1 to rewrite fixtures";
    regenerate();
}

TEST(SnapshotGolden, GbrtFixturePredictsRecordedBits)
{
    const auto image = readFixture("golden_gbrt.dacsnap");
    ASSERT_FALSE(image.empty());
    const auto result = decodeSnapshot(image.data(), image.size());
    ASSERT_TRUE(result.ok())
        << snapshotErrorName(result.error) << ": " << result.message;
    const auto &snap = result.snapshot;
    EXPECT_EQ(snap.workload, "TS");
    EXPECT_EQ(snap.sizeBand, 3);
    ASSERT_NE(snap.model, nullptr);
    ASSERT_NE(snap.compiled, nullptr);

    std::ifstream expected(kDataDir + "/golden_gbrt.expected");
    ASSERT_TRUE(expected.is_open());
    for (const auto &row : probeRows()) {
        std::string line;
        ASSERT_TRUE(static_cast<bool>(std::getline(expected, line)));
        const uint64_t want = std::stoull(line, nullptr, 16);
        EXPECT_EQ(std::bit_cast<uint64_t>(
                      snap.model->predict(row.data(), row.size())),
                  want);
        EXPECT_EQ(std::bit_cast<uint64_t>(
                      snap.compiled->predict(row.data(), row.size())),
                  want);
    }

    // The current encoder must still produce these exact bytes.
    const auto reencoded = encodeSnapshot(viewOf(snap));
    EXPECT_TRUE(reencoded == image);
}

TEST(SnapshotGolden, HmFixtureReencodesByteIdentically)
{
    const auto image = readFixture("golden_hm.dacsnap");
    ASSERT_FALSE(image.empty());
    const auto result = decodeSnapshot(image.data(), image.size());
    ASSERT_TRUE(result.ok())
        << snapshotErrorName(result.error) << ": " << result.message;
    EXPECT_EQ(result.snapshot.workload, "KM");
    ASSERT_NE(result.snapshot.compiled, nullptr);
    EXPECT_TRUE(result.snapshot.compiled->expOutput());

    const auto reencoded = encodeSnapshot(viewOf(result.snapshot));
    EXPECT_TRUE(reencoded == image);
}

TEST(SnapshotGolden, RetrainReproducesFixtureBytes)
{
    // The fixtures above pin loading; this pins training. The same
    // data and params must grow the committed models bit for bit, so
    // a drift in split finding or boosting fails here even when every
    // decoder is unchanged. (The HM is log-target: its training calls
    // log()/exp(), so its bytes also assume the libm the fixture was
    // made with.)
    EXPECT_TRUE(encodeGolden(*goldenGbrt(), "TS") ==
                readFixture("golden_gbrt.dacsnap"));
    EXPECT_TRUE(encodeGolden(*goldenHm(), "KM") ==
                readFixture("golden_hm.dacsnap"));
}

TEST(SnapshotGolden, V1FixtureIsStale)
{
    // Format 1 stored the compiled ensemble after the model. The
    // reader speaks only the current version, so the file is stale:
    // BadVersion, which the model cache answers by deleting it.
    const auto image = readFixture("v1_gbrt.dacsnap");
    ASSERT_FALSE(image.empty());
    SnapshotHeader header;
    EXPECT_EQ(readSnapshotHeader(image.data(), image.size(), &header),
              SnapshotError::BadVersion);
    EXPECT_EQ(header.version, 1u);
    const auto result = decodeSnapshot(image.data(), image.size());
    EXPECT_EQ(result.error, SnapshotError::BadVersion);
    EXPECT_EQ(result.snapshot.model, nullptr);
}

TEST(SnapshotGolden, BumpedVersionRejectedAsBadVersion)
{
    auto image = readFixture("golden_gbrt.dacsnap");
    ASSERT_GE(image.size(), SnapshotHeader::kBytes);
    const uint16_t bumped = kSnapshotVersion + 1;
    image[4] = static_cast<uint8_t>(bumped & 0xff);
    image[5] = static_cast<uint8_t>(bumped >> 8);
    resealHeaderCrc(image);
    const auto result = decodeSnapshot(image.data(), image.size());
    EXPECT_EQ(result.error, SnapshotError::BadVersion);
}

TEST(SnapshotGolden, WrongPayloadChecksumRejected)
{
    auto image = readFixture("golden_gbrt.dacsnap");
    ASSERT_GE(image.size(), SnapshotHeader::kBytes);
    image[16] ^= 0xFF; // payloadCrc field
    resealHeaderCrc(image);
    const auto result = decodeSnapshot(image.data(), image.size());
    EXPECT_EQ(result.error, SnapshotError::BadChecksum);
}

TEST(SnapshotGolden, DamagedHeaderCrcRejected)
{
    auto image = readFixture("golden_gbrt.dacsnap");
    ASSERT_GE(image.size(), SnapshotHeader::kBytes);
    image[28] ^= 0x01; // the header CRC itself
    const auto result = decodeSnapshot(image.data(), image.size());
    EXPECT_EQ(result.error, SnapshotError::BadHeaderChecksum);
}

} // namespace
} // namespace dac::persist
