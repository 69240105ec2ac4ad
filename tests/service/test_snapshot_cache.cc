/**
 * @file
 * ModelCache snapshot/restore: persistence of every entry to a directory,
 * warm restore with bit-identical predictions, stale-version eviction,
 * corrupt-file skipping (a service restoring such a file still builds
 * and answers its key), and the accounting contract (a restore must
 * not skew hit/miss stats — the warm-restart test reads them).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "conf/config.h"
#include "conf/space.h"
#include "ml/boosting.h"
#include "ml/flat_ensemble.h"
#include "persist/snapshot.h"
#include "service/model_cache.h"
#include "service/service.h"
#include "sparksim/simulator.h"
#include "support/checksum.h"
#include "support/mapped_file.h"
#include "support/random.h"

namespace dac::service {
namespace {

class SnapshotCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char dirTemplate[] = "/tmp/dac-snapcache-XXXXXX";
        ASSERT_NE(mkdtemp(dirTemplate), nullptr);
        dir = dirTemplate;
    }

    void TearDown() override
    {
        const std::string cmd = "rm -rf '" + dir + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }

    std::string dir;
};

ModelKey
key(const std::string &workload, int band = 0)
{
    return ModelKey{workload, "test-cluster", band};
}

/** A cache entry with a real trained model (persistable). */
std::shared_ptr<const CachedModel>
trainedEntry(uint64_t seed, double error_pct)
{
    ml::DataSet data(3);
    Rng rng(seed);
    for (int i = 0; i < 24; ++i) {
        std::vector<double> x = {rng.uniform(), rng.uniform(),
                                 rng.uniform()};
        data.addRow(x, 8.0 + 12.0 * x[0] + 4.0 * x[1] * x[2]);
    }
    ml::BoostParams params;
    params.maxTrees = 5;
    params.convergencePatience = 0;
    params.targetErrorPct = 0.0;
    params.seed = seed;
    auto model = std::make_shared<ml::GradientBoost>(params);
    model->train(data);

    auto entry = std::make_shared<CachedModel>();
    entry->compiled =
        std::shared_ptr<const ml::FlatEnsemble>(model->compile());
    entry->model = std::move(model);
    entry->vectors.resize(2);
    entry->vectors[0] = {5.0, {0.1, 0.2}, 1e9};
    entry->vectors[1] = {6.5, {0.3, 0.4}, 2e9};
    entry->modelErrorPct = error_pct;
    return entry;
}

TEST_F(SnapshotCacheTest, SnapshotThenRestoreRoundTrips)
{
    ModelCache cache(8);
    cache.insert(key("TS", 5), trainedEntry(11, 4.0));
    cache.insert(key("WC", 6), trainedEntry(12, 6.0));

    const auto saved = cache.snapshotTo(dir);
    EXPECT_EQ(saved.saved, 2u);
    EXPECT_EQ(saved.failed, 0u);

    ModelCache fresh(8);
    const auto restored = fresh.restoreFrom(dir, 2);
    EXPECT_EQ(restored.loaded, 2u);
    EXPECT_EQ(restored.staleEvicted, 0u);
    EXPECT_EQ(restored.failed, 0u);

    // Restore must not skew the accounting the serving layer reports.
    const auto stats = fresh.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.size, 2u);

    // Reloaded entries predict bit-identically, compiled included.
    const auto original = cache.lookup(key("TS", 5));
    const auto reloaded = fresh.lookup(key("TS", 5));
    ASSERT_NE(reloaded, nullptr);
    ASSERT_NE(reloaded->model, nullptr);
    ASSERT_NE(reloaded->compiled, nullptr);
    const double probe[] = {0.37, 0.81, 0.12};
    EXPECT_EQ(std::bit_cast<uint64_t>(reloaded->model->predict(probe, 3)),
              std::bit_cast<uint64_t>(original->model->predict(probe, 3)));
    EXPECT_EQ(
        std::bit_cast<uint64_t>(reloaded->compiled->predict(probe, 3)),
        std::bit_cast<uint64_t>(original->compiled->predict(probe, 3)));
    EXPECT_EQ(reloaded->vectors.size(), original->vectors.size());
    EXPECT_DOUBLE_EQ(reloaded->modelErrorPct, 4.0);
}

TEST_F(SnapshotCacheTest, SnapshotFileNamesAreStableAndSuffixed)
{
    const auto name = ModelCache::snapshotFileName(key("TS", 5));
    EXPECT_EQ(name, ModelCache::snapshotFileName(key("TS", 5)));
    EXPECT_NE(name, ModelCache::snapshotFileName(key("TS", 6)));
    EXPECT_NE(name, ModelCache::snapshotFileName(key("WC", 5)));
    ASSERT_GT(name.size(), std::string(persist::kSnapshotSuffix).size());
    EXPECT_EQ(name.substr(name.size() -
                          std::string(persist::kSnapshotSuffix).size()),
              persist::kSnapshotSuffix);
}

TEST_F(SnapshotCacheTest, StaleVersionFilesAreDeletedOnRestore)
{
    ModelCache cache(4);
    cache.insert(key("KM", 2), trainedEntry(13, 3.0));
    ASSERT_EQ(cache.snapshotTo(dir).saved, 1u);

    // Bump the version in place and reseal the header CRC so the
    // loader reaches the version check.
    const auto files = listFilesWithSuffix(dir, persist::kSnapshotSuffix);
    ASSERT_EQ(files.size(), 1u);
    const std::string path = dir + "/" + files[0];
    std::vector<uint8_t> image;
    {
        MappedFile file;
        ASSERT_TRUE(file.open(path));
        image.assign(file.data(), file.data() + file.size());
    }
    const uint16_t bumped = persist::kSnapshotVersion + 1;
    image[4] = static_cast<uint8_t>(bumped & 0xff);
    image[5] = static_cast<uint8_t>(bumped >> 8);
    const uint32_t crc = crc32c(image.data(), 28);
    for (int i = 0; i < 4; ++i)
        image[28 + static_cast<size_t>(i)] =
            static_cast<uint8_t>(crc >> (8 * i));
    ASSERT_TRUE(atomicWriteFile(path, image.data(), image.size()));

    ModelCache fresh(4);
    const auto io = fresh.restoreFrom(dir, 2);
    EXPECT_EQ(io.loaded, 0u);
    EXPECT_EQ(io.staleEvicted, 1u);
    EXPECT_EQ(io.failed, 0u);
    EXPECT_EQ(fresh.size(), 0u);
    // The stale file is gone: the next snapshot pass rewrites it in
    // the current format instead of tripping over it forever.
    EXPECT_TRUE(
        listFilesWithSuffix(dir, persist::kSnapshotSuffix).empty());
}

TEST_F(SnapshotCacheTest, CorruptFilesAreSkippedNotDeleted)
{
    const std::string path = dir + "/junk" + persist::kSnapshotSuffix;
    const std::string junk = "not a snapshot at all";
    ASSERT_TRUE(atomicWriteFile(path, junk.data(), junk.size()));

    ModelCache cache(4);
    const auto io = cache.restoreFrom(dir, 2);
    EXPECT_EQ(io.loaded, 0u);
    EXPECT_EQ(io.failed, 1u);
    EXPECT_EQ(cache.size(), 0u);
    // Unlike stale versions, damage is kept for a human to examine.
    EXPECT_EQ(listFilesWithSuffix(dir, persist::kSnapshotSuffix).size(),
              1u);
}

/** The key a TS request at size 40 maps to in a service over `sim`. */
ModelKey
tsKey(const sparksim::SparkSimulator &sim)
{
    return ModelKey{"TS", sim.clusterSpec().signature(), sizeBandOf(40)};
}

/**
 * Restore `dir`, which holds one bad file for tsKey(), and expect it
 * skipped but kept; then expect a service restoring the same
 * directory to start, build the key on its first request and answer
 * it, persisting the build over the bad file.
 */
void
expectSkippedThenRebuilt(const sparksim::SparkSimulator &sim,
                         const std::string &dir)
{
    const size_t width = conf::ConfigSpace::spark().size();
    const std::string path =
        dir + "/" + ModelCache::snapshotFileName(tsKey(sim));
    ModelCache cache(4);
    const auto io = cache.restoreFrom(dir, width);
    EXPECT_EQ(io.loaded, 0u);
    EXPECT_EQ(io.failed, 1u);
    EXPECT_EQ(cache.size(), 0u);
    EXPECT_TRUE(std::filesystem::exists(path));

    ServiceOptions options;
    options.threads = 2;
    options.modelCacheCapacity = 4;
    options.tuning.collect.datasetCount = 4;
    options.tuning.collect.runsPerDataset = 12;
    options.tuning.hm.firstOrder.maxTrees = 60;
    options.tuning.hm.firstOrder.convergencePatience = 30;
    options.tuning.ga.maxGenerations = 25;
    options.snapshotDir = dir;
    TuningService service(sim, options);
    EXPECT_EQ(service.cacheStats().size, 0u);
    TuneRequest request;
    request.workload = "TS";
    request.nativeSize = 40;
    const TuneResponse answer = service.submit(request).get();
    EXPECT_FALSE(answer.modelCacheHit);
    EXPECT_FALSE(answer.degraded);
    EXPECT_TRUE(persist::loadSnapshotFile(path).ok());
}

TEST_F(SnapshotCacheTest, UncompilableFileIsSkippedAndItsKeyRebuilt)
{
    // A checksum-valid snapshot of a booster with no trees, filed
    // under the key a TS request at size 40 maps to. compile() asserts
    // on such a model, so the decoder must type the file Corrupt.
    const sparksim::SparkSimulator sim(
        cluster::ClusterSpec::paperTestbed());
    CachedModel empty;
    empty.model = std::make_shared<ml::GradientBoost>(ml::BoostParams{});
    ASSERT_TRUE(ModelCache::writeSnapshot(dir, tsKey(sim), empty));
    expectSkippedThenRebuilt(sim, dir);
}

/**
 * A snapshot that decodes but whose one split reads feature 500, far
 * past the Spark space plus dsize: restored, every TS/40 search would
 * fail ("row stride too short") and the key would never be rebuilt.
 */
TEST_F(SnapshotCacheTest, SplitPastTheConfigurationWidthIsSkipped)
{
    const sparksim::SparkSimulator sim(
        cluster::ClusterSpec::paperTestbed());
    constexpr size_t kFeatures = 501;
    ml::DataSet data(kFeatures);
    for (int i = 0; i < 16; ++i) {
        std::vector<double> x(kFeatures, 0.0);
        x[kFeatures - 1] = i;
        data.addRow(x, i < 8 ? 10.0 : 20.0);
    }
    ml::BoostParams params;
    params.maxTrees = 1;
    params.convergencePatience = 0;
    params.targetErrorPct = 0.0;
    auto model = std::make_shared<ml::GradientBoost>(params);
    model->train(data);

    CachedModel entry;
    entry.compiled =
        std::shared_ptr<const ml::FlatEnsemble>(model->compile());
    ASSERT_EQ(entry.compiled->minFeatureCount(), kFeatures);
    entry.model = std::move(model);
    const conf::Configuration defaults(conf::ConfigSpace::spark());
    entry.vectors.push_back({5.0, defaults.values(), 1e9});
    ASSERT_TRUE(ModelCache::writeSnapshot(dir, tsKey(sim), entry));
    expectSkippedThenRebuilt(sim, dir);
}

/**
 * A snapshot whose model fits but whose training vectors are 3 wide:
 * restored, every TS/40 search would fail seeding its population
 * (Configuration's width assert).
 */
TEST_F(SnapshotCacheTest, WrongWidthTrainingVectorIsSkipped)
{
    const sparksim::SparkSimulator sim(
        cluster::ClusterSpec::paperTestbed());
    CachedModel entry = *trainedEntry(14, 5.0);
    for (auto &vector : entry.vectors)
        vector.config.push_back(0.5);
    ASSERT_TRUE(ModelCache::writeSnapshot(dir, tsKey(sim), entry));
    expectSkippedThenRebuilt(sim, dir);
}

TEST_F(SnapshotCacheTest, RestoreFromMissingDirectoryIsEmpty)
{
    ModelCache cache(4);
    const auto io = cache.restoreFrom(dir + "/never-created", 2);
    EXPECT_EQ(io.loaded, 0u);
    EXPECT_EQ(io.staleEvicted, 0u);
    EXPECT_EQ(io.failed, 0u);
}

TEST_F(SnapshotCacheTest, EntryWithoutModelCountsAsFailed)
{
    ModelCache cache(4);
    cache.insert(key("PR"), std::make_shared<CachedModel>());
    const auto io = cache.snapshotTo(dir);
    EXPECT_EQ(io.saved, 0u);
    EXPECT_EQ(io.failed, 1u);
}

} // namespace
} // namespace dac::service
