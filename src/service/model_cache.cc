#include "service/model_cache.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <sstream>
#include <utility>

#include "persist/snapshot.h"
#include "support/logging.h"
#include "support/mapped_file.h"
#include "support/random.h"

namespace dac::service {

std::string
ModelKey::toString() const
{
    std::ostringstream oss;
    oss << workload << "@" << cluster << "#band" << sizeBand;
    return oss.str();
}

uint64_t
ModelKey::stableHash() const
{
    // SplitMix64-fold each field. The length fold between fields keeps
    // ("ab","c") and ("a","bc") distinct.
    uint64_t h = 0x9e3779b97f4a7c15ULL;
    const auto foldString = [&h](const std::string &text) {
        for (const char c : text)
            h = splitmix64(h ^ static_cast<uint64_t>(
                                   static_cast<unsigned char>(c)));
        h = splitmix64(h ^ static_cast<uint64_t>(text.size()));
    };
    foldString(workload);
    foldString(cluster);
    h = splitmix64(h ^ static_cast<uint64_t>(
                           static_cast<uint32_t>(sizeBand)));
    return h;
}

int
sizeBandOf(double native_size)
{
    DAC_ASSERT(native_size > 0.0, "datasize band of a non-positive size");
    return static_cast<int>(std::floor(std::log2(native_size)));
}

double
ModelCache::Stats::hitRate() const
{
    const uint64_t useful = hits + coalesced;
    const uint64_t total = useful + misses;
    return total > 0
        ? static_cast<double>(useful) / static_cast<double>(total)
        : 0.0;
}

ModelCache::ModelCache(size_t capacity) : capacity(capacity)
{
    DAC_ASSERT(capacity > 0, "model cache needs capacity >= 1");
}

std::shared_ptr<const CachedModel>
ModelCache::getOrBuild(const ModelKey &key, const Builder &build)
{
    std::promise<std::shared_ptr<const CachedModel>> promise;
    {
        std::unique_lock<std::mutex> lock(mutex);
        if (auto found = findLocked(key)) {
            ++hits;
            return found;
        }
        if (const auto it = inflight.find(key); it != inflight.end()) {
            // Another caller is already building this model; wait for
            // it outside the lock and share the result.
            ++coalesced;
            auto shared = it->second;
            lock.unlock();
            return shared.get();
        }
        ++misses;
        inflight.emplace(key, promise.get_future().share());
    }

    std::shared_ptr<const CachedModel> built;
    try {
        built = build();
        DAC_ASSERT(built != nullptr, "model builder returned nullptr");
    } catch (...) {
        std::lock_guard<std::mutex> lock(mutex);
        inflight.erase(key);
        promise.set_exception(std::current_exception());
        throw;
    }

    {
        std::lock_guard<std::mutex> lock(mutex);
        insertLocked(key, built);
        inflight.erase(key);
    }
    promise.set_value(built);
    return built;
}

std::shared_ptr<const CachedModel>
ModelCache::lookup(const ModelKey &key)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (auto found = findLocked(key)) {
        ++hits;
        return found;
    }
    ++misses;
    return nullptr;
}

void
ModelCache::insert(const ModelKey &key,
                   std::shared_ptr<const CachedModel> model)
{
    DAC_ASSERT(model != nullptr, "inserted a null model");
    std::lock_guard<std::mutex> lock(mutex);
    insertLocked(key, std::move(model));
}

void
ModelCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex);
    entries.clear();
    index.clear();
}

size_t
ModelCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return entries.size();
}

ModelCache::Stats
ModelCache::stats() const
{
    Stats out;
    out.capacity = capacity;
    std::lock_guard<std::mutex> lock(mutex);
    out.hits = hits;
    out.misses = misses;
    out.coalesced = coalesced;
    out.evictions = evictions;
    out.size = entries.size();
    return out;
}

std::vector<ModelKey>
ModelCache::keysByRecency() const
{
    std::vector<ModelKey> keys;
    std::lock_guard<std::mutex> lock(mutex);
    keys.reserve(entries.size());
    for (const auto &[key, model] : entries)
        keys.push_back(key);
    return keys;
}

std::string
ModelCache::snapshotFileName(const ModelKey &key)
{
    std::ostringstream oss;
    oss << "dac-" << std::hex << std::setw(16) << std::setfill('0')
        << key.stableHash() << persist::kSnapshotSuffix;
    return oss.str();
}

bool
ModelCache::writeSnapshot(const std::string &dir, const ModelKey &key,
                          const CachedModel &model, std::string *error)
{
    if (model.model == nullptr) {
        if (error != nullptr)
            *error = "entry has no model to persist";
        return false;
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        if (error != nullptr)
            *error = "create " + dir + ": " + ec.message();
        return false;
    }

    persist::SnapshotView view;
    view.workload = &key.workload;
    view.cluster = &key.cluster;
    view.sizeBand = key.sizeBand;
    view.modelErrorPct = model.modelErrorPct;
    view.overhead = &model.overhead;
    view.vectors = &model.vectors;
    view.model = model.model.get();

    const std::string path =
        (std::filesystem::path(dir) / snapshotFileName(key)).string();
    return persist::saveSnapshotFile(path, view, error);
}

ModelCache::SnapshotIo
ModelCache::snapshotTo(const std::string &dir) const
{
    // Copy the entries under the lock (cheap: keys plus shared_ptrs),
    // then hit the disk without holding it.
    std::vector<Entry> snapshot;
    {
        std::lock_guard<std::mutex> lock(mutex);
        snapshot.assign(entries.begin(), entries.end());
    }
    SnapshotIo io;
    for (const auto &[key, model] : snapshot) {
        std::string error;
        if (writeSnapshot(dir, key, *model, &error)) {
            ++io.saved;
        } else {
            ++io.failed;
            warn("snapshot of " + key.toString() + " failed: " + error);
        }
    }
    return io;
}

ModelCache::SnapshotIo
ModelCache::restoreFrom(const std::string &dir, size_t width)
{
    SnapshotIo io;
    for (const std::string &name :
         listFilesWithSuffix(dir, persist::kSnapshotSuffix)) {
        const std::string path =
            (std::filesystem::path(dir) / name).string();
        persist::SnapshotLoadResult result =
            persist::loadSnapshotFile(path);
        if (result.error == persist::SnapshotError::BadVersion) {
            // Stale format: delete rather than migrate — the model is
            // reproducible from training data, the file is not worth
            // carrying reader code for.
            std::error_code ec;
            std::filesystem::remove(path, ec);
            ++io.staleEvicted;
            warn("evicted stale snapshot " + name);
            continue;
        }
        if (!result.ok()) {
            ++io.failed;
            warn("skipped snapshot " + name + " (" +
                 persist::snapshotErrorName(result.error) +
                 "): " + result.message);
            continue;
        }

        persist::ModelSnapshot &snap = result.snapshot;
        // The key's searches score `width` values plus dsize through
        // the compiled form and seed from `width`-wide vectors. A file
        // that does not fit would fail every request for the key, and
        // the key would never be rebuilt; skipped, its first request
        // rebuilds it.
        const bool fits =
            snap.compiled && snap.compiled->minFeatureCount() <= width + 1 &&
            std::all_of(snap.vectors.begin(), snap.vectors.end(),
                        [width](const core::PerfVector &vector) {
                            return vector.config.size() == width;
                        });
        if (!fits) {
            ++io.failed;
            warn("skipped snapshot " + name + ": does not fit " +
                 std::to_string(width) + " configuration values");
            continue;
        }
        ModelKey key{snap.workload, snap.cluster, snap.sizeBand};
        auto entry = std::make_shared<CachedModel>();
        entry->model = snap.model;
        entry->compiled = snap.compiled;
        entry->vectors = std::move(snap.vectors);
        entry->modelErrorPct = snap.modelErrorPct;
        entry->overhead = snap.overhead;
        insert(key, std::move(entry));
        ++io.loaded;
    }
    return io;
}

std::shared_ptr<const CachedModel>
ModelCache::findLocked(const ModelKey &key)
{
    const auto it = index.find(key);
    if (it == index.end())
        return nullptr;
    // Touch: move to the MRU head.
    entries.splice(entries.begin(), entries, it->second);
    return entries.front().second;
}

void
ModelCache::insertLocked(const ModelKey &key,
                         std::shared_ptr<const CachedModel> model)
{
    if (const auto it = index.find(key); it != index.end()) {
        it->second->second = std::move(model);
        entries.splice(entries.begin(), entries, it->second);
        return;
    }
    entries.emplace_front(key, std::move(model));
    index.emplace(key, entries.begin());
    while (entries.size() > capacity) {
        index.erase(entries.back().first);
        entries.pop_back();
        ++evictions;
    }
}

} // namespace dac::service
