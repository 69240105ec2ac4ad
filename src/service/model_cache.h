/**
 * @file
 * LRU cache of trained performance models, keyed by
 * (workload, cluster signature, datasize band).
 *
 * Collection plus modeling dominate a tune request (Table 3: hours of
 * simulated cluster time vs milliseconds of GA search), so a service
 * handling repeated traffic for the same program must reuse models.
 * The datasize band quantizes the requested size to powers of two:
 * requests within a band share a model trained around that band, and a
 * request that drifts a whole band away retrains — the service-scale
 * analogue of the periodic session's 10% drift rule (Eq. 4).
 *
 * getOrBuild() coalesces concurrent builds of the same key: one caller
 * runs the expensive builder while the rest block on its result, so a
 * burst of identical cold requests costs one collection campaign.
 *
 * One mutex guards the whole cache: a lookup holds it for a map probe
 * and a list splice (about 2 us of a multi-millisecond answer), and a
 * build runs outside it. Every one of the `capacity` slots is open to
 * every key, so the cache evicts only when it holds more distinct keys
 * than it has room for (DESIGN.md §11).
 */

#ifndef DAC_SERVICE_MODEL_CACHE_H
#define DAC_SERVICE_MODEL_CACHE_H

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "dac/perfvector.h"
#include "dac/tuner.h"
#include "ml/flat_ensemble.h"
#include "ml/model.h"

namespace dac::service {

/**
 * Identity of one cached model.
 */
struct ModelKey
{
    /** Workload abbreviation ("PR", "KM", ...). */
    std::string workload;
    /** ClusterSpec::signature() of the target cluster. */
    std::string cluster;
    /** floor(log2(native size)): requests in the same power-of-two
     *  band share a model. */
    int sizeBand = 0;

    bool operator==(const ModelKey &other) const = default;
    bool
    operator<(const ModelKey &other) const
    {
        return std::tie(workload, cluster, sizeBand) <
               std::tie(other.workload, other.cluster, other.sizeBand);
    }

    /** "TS@paper-testbed/...#band4" rendering for logs. */
    [[nodiscard]] std::string toString() const;

    /**
     * Platform-stable 64-bit hash of the key. Snapshot file names are
     * built from it (ModelCache::snapshotFileName), so it must not
     * depend on the standard library build the way std::hash does.
     */
    [[nodiscard]] uint64_t stableHash() const;
};

/** The band a native dataset size falls in. */
[[nodiscard]] int sizeBandOf(double native_size);

/**
 * A trained model plus everything a search against it needs.
 */
struct CachedModel
{
    /** The trained performance model (HM for DAC requests). */
    std::shared_ptr<const ml::Model> model;
    /**
     * The model compiled for fast inference (flat_ensemble.h), built
     * once when the entry is; every search against this entry scores
     * the GA through it. Nullptr for non-compilable models.
     */
    std::shared_ptr<const ml::FlatEnsemble> compiled;
    /** Training set; the GA seeds its population from it (Fig. 6). */
    std::vector<core::PerfVector> vectors;
    /** Cross-validated model error, percent (Eq. 2). */
    double modelErrorPct = 0.0;
    /** Collection/modeling cost paid to build this entry (Table 3). */
    core::TunerOverhead overhead;
};

/**
 * Thread-safe LRU cache of CachedModels with build coalescing.
 */
class ModelCache
{
  public:
    /** Builder invoked (outside any cache lock) on a miss. */
    using Builder =
        std::function<std::shared_ptr<const CachedModel>()>;

    /** Cache accounting. */
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        /** Lookups that joined another caller's in-flight build. */
        uint64_t coalesced = 0;
        uint64_t evictions = 0;
        size_t size = 0;
        size_t capacity = 0;

        /** hits / (hits + misses), counting coalesced joins as hits. */
        [[nodiscard]] double hitRate() const;
    };

    /** Cache holding at most `capacity` models (>= 1). */
    explicit ModelCache(size_t capacity);

    /**
     * The model for `key`, building it if absent.
     *
     * Exactly one concurrent caller per key runs `build`; the others
     * wait and share the result. A builder failure propagates to every
     * waiter and caches nothing. Builds of different keys proceed
     * concurrently.
     */
    [[nodiscard]] std::shared_ptr<const CachedModel>
    getOrBuild(const ModelKey &key, const Builder &build);

    /** The cached model for `key`, or nullptr; counts a hit or miss. */
    [[nodiscard]] std::shared_ptr<const CachedModel>
    lookup(const ModelKey &key);

    /** Insert (or refresh) an entry, evicting the LRU tail when the
     *  cache is full. */
    void insert(const ModelKey &key,
                std::shared_ptr<const CachedModel> model);

    /** Drop every entry (counters are kept). */
    void clear();

    [[nodiscard]] size_t size() const;
    [[nodiscard]] Stats stats() const;

    /** Keys from most- to least-recently used. */
    [[nodiscard]] std::vector<ModelKey> keysByRecency() const;

    /** Outcome counts of one snapshotTo() or restoreFrom() pass. */
    struct SnapshotIo
    {
        /** Entries persisted to disk. */
        size_t saved = 0;
        /** Entries restored into the cache. */
        size_t loaded = 0;
        /** Old-format files deleted (version mismatch). */
        size_t staleEvicted = 0;
        /** Entries that failed to persist / files that failed to load. */
        size_t failed = 0;
    };

    /**
     * File name for a key's snapshot inside a snapshot directory:
     * "dac-<16 hex digits of stableHash()>.dacsnap". Content-addressed
     * by key, so re-persisting a key atomically replaces its file.
     */
    [[nodiscard]] static std::string snapshotFileName(const ModelKey &key);

    /**
     * Persist one entry into `dir` (created if missing) with an atomic
     * write-rename. Static so the service can persist the entry it
     * just built without a stats-disturbing cache round-trip. Returns
     * false and fills *error on failure; never throws.
     */
    static bool writeSnapshot(const std::string &dir, const ModelKey &key,
                              const CachedModel &model,
                              std::string *error = nullptr);

    /**
     * Persist every current entry into `dir`. Entry pointers are
     * collected under the cache lock but files are written outside
     * it, so serving traffic never blocks on disk.
     */
    SnapshotIo snapshotTo(const std::string &dir) const;

    /**
     * Load every "*.dacsnap" file in `dir` into the cache (insert
     * semantics: no hit/miss accounting, LRU eviction applies when a
     * directory holds more models than the cache). Files written by an
     * older format version are DELETED (stale eviction: models are
     * reproducible, migration is not worth carrying); files that are
     * corrupt or unreadable are skipped with a warning and counted in
     * `failed`, and so are files that do not fit the searches their
     * key runs over `width` configuration values: no compiled form, a
     * split reading past the `width` values plus the dsize column, or
     * a training vector not `width` wide. A missing directory is
     * simply an empty restore.
     */
    SnapshotIo restoreFrom(const std::string &dir, size_t width);

  private:
    using Entry = std::pair<ModelKey, std::shared_ptr<const CachedModel>>;

    /** Requires `mutex` held. Returns nullptr on miss; no
     *  accounting. */
    std::shared_ptr<const CachedModel> findLocked(const ModelKey &key);
    /** Requires `mutex` held. */
    void insertLocked(const ModelKey &key,
                      std::shared_ptr<const CachedModel> model);

    const size_t capacity;
    mutable std::mutex mutex; ///< guards every field below
    /** MRU-first entry list; `index` points into it. */
    std::list<Entry> entries;
    std::map<ModelKey, std::list<Entry>::iterator> index;
    /** One shared build per key in flight at a time. */
    std::map<ModelKey,
             std::shared_future<std::shared_ptr<const CachedModel>>>
        inflight;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t coalesced = 0;
    uint64_t evictions = 0;
};

} // namespace dac::service

#endif // DAC_SERVICE_MODEL_CACHE_H
