/**
 * @file
 * Versioned, checksummed model snapshots — the on-disk format behind
 * warm restarts (ROADMAP: "Model persistence and warm restarts").
 *
 * A snapshot file is one cache entry: the tuning key, the training
 * vectors, the bookkeeping the serving layer reports (model error,
 * tuner overhead) and, last, the trained model (HM/GBRT trees with
 * every training artifact). The compiled FlatEnsemble is not stored:
 * it is a pure function of the model, cheaper to derive than to
 * decode, so the decoder recompiles it. Layout:
 *
 *       offset  size  field
 *            0     4  magic "DACS" (0x53434144 LE)
 *            4     2  format version (kSnapshotVersion)
 *            6     2  flags (must be zero)
 *            8     8  payload length in bytes
 *           16     4  CRC32C of the payload
 *           20     8  reserved (must be zero)
 *           28     4  CRC32C of header bytes [0, 28)
 *           32     -  payload (support/bytes.h encoding)
 *
 * Validation runs outside-in, each stage reporting its own
 * SnapshotError: size/magic/header-CRC first (is this even one of our
 * files, undamaged enough to trust the header?), then version/flags
 * (do we speak it?), then length and payload CRC (is the body
 * intact?), and only then structural parsing and compile. A reader
 * never walks payload bytes that have not passed their checksum.
 *
 * Versioning rule: readers accept exactly kSnapshotVersion. Any layout
 * change — even an appended field — bumps it, and loaders treat old
 * versions as stale (the cache deletes and retrains rather than
 * migrate; models are reproducible from training data, so migration
 * machinery would be dead weight). Encoding is deterministic — no
 * timestamps, no pointers — so encode(decode(bytes)) == bytes, which
 * the property suite pins as snapshot idempotence.
 *
 * Atomicity: writers go through support/mapped_file.h's
 * atomicWriteFile (same-directory temp + fsync + rename), so a crash
 * mid-write leaves either the old file or the new one, never a torn
 * hybrid; the CRCs then catch anything the filesystem still manages
 * to mangle. See DESIGN.md section 15.
 */

#ifndef DAC_PERSIST_SNAPSHOT_H
#define DAC_PERSIST_SNAPSHOT_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dac/perfvector.h"
#include "dac/tuner.h"
#include "ml/model.h"
#include "persist/bytes.h"

namespace dac::ml {
class FlatEnsemble;
}

namespace dac::persist {

/**
 * Current snapshot format version; see the versioning rule above.
 * Version 1 also stored the compiled ensemble after the model.
 */
inline constexpr uint16_t kSnapshotVersion = 2;

/** "DACS", little-endian. */
inline constexpr uint32_t kSnapshotMagic = 0x53434144u;

/** Conventional file extension for snapshot files. */
inline constexpr const char *kSnapshotSuffix = ".dacsnap";

/** Decoded fixed-size file header. */
struct SnapshotHeader
{
    static constexpr size_t kBytes = 32;

    uint32_t magic = kSnapshotMagic;
    uint16_t version = kSnapshotVersion;
    uint16_t flags = 0;
    uint64_t payloadLen = 0;
    uint32_t payloadCrc = 0;
    uint64_t reserved = 0;
    uint32_t headerCrc = 0;
};

/**
 * Read and validate only the header of a snapshot image (first stage
 * of decodeSnapshot; also the `dac_snap inspect` fast path). Returns
 * the error the full loader would report for a file whose damage is
 * visible at header level, None otherwise; *out is filled whenever
 * the 32 bytes exist, so an inspector can print what it saw even for
 * a rejected header.
 */
SnapshotError readSnapshotHeader(const uint8_t *data, size_t len,
                                 SnapshotHeader *out);

/** One persisted model-cache entry, owning storage. */
struct ModelSnapshot
{
    std::string workload;
    std::string cluster;
    int sizeBand = 0;
    double modelErrorPct = 0.0;
    core::TunerOverhead overhead;
    std::vector<core::PerfVector> vectors;
    std::shared_ptr<const ml::Model> model;
    /** model->compile(), derived by the decoder (not stored); null for
     *  a model with no compiled form (a bare RegressionTree). */
    std::shared_ptr<const ml::FlatEnsemble> compiled;
};

/**
 * Borrowed view of the stored fields, so the model cache can encode an
 * entry it holds by shared_ptr without copying model or vectors.
 * `model` must not be null.
 */
struct SnapshotView
{
    const std::string *workload = nullptr;
    const std::string *cluster = nullptr;
    int sizeBand = 0;
    double modelErrorPct = 0.0;
    const core::TunerOverhead *overhead = nullptr;
    const std::vector<core::PerfVector> *vectors = nullptr;
    const ml::Model *model = nullptr;
};

/** Outcome of decodeSnapshot/loadSnapshotFile. */
struct SnapshotLoadResult
{
    SnapshotError error = SnapshotError::None;
    /** Human-readable detail for logs; empty on success. */
    std::string message;
    /** Filled only when error == None. */
    ModelSnapshot snapshot;

    bool ok() const { return error == SnapshotError::None; }
};

/**
 * Encode a complete snapshot image (header + payload). Deterministic:
 * the same entry always yields the same bytes. Throws DecodeError
 * (UnsupportedModel) if the view's model kind cannot be serialized.
 */
std::vector<uint8_t> encodeSnapshot(const SnapshotView &view);

/**
 * Decode and validate a snapshot image, then compile the model into
 * ModelSnapshot::compiled. Never throws and never crashes on arbitrary
 * bytes — every failure mode maps to a typed SnapshotError (the
 * corruption batteries replay truncations, bit flips and resealed
 * payload mutations through here, compile included, under ASan to
 * keep it that way).
 */
SnapshotLoadResult decodeSnapshot(const uint8_t *data, size_t len);

/**
 * Atomically write `view` to `path` (temp + fsync + rename). Returns
 * false and fills *error on I/O failure or unsupported model.
 */
bool saveSnapshotFile(const std::string &path, const SnapshotView &view,
                      std::string *error = nullptr);

/** Map `path` and decode it; I/O failures surface as IoError. */
SnapshotLoadResult loadSnapshotFile(const std::string &path);

/** View over an owning snapshot (for re-encode / save-of-load). */
SnapshotView viewOf(const ModelSnapshot &snapshot);

} // namespace dac::persist

#endif // DAC_PERSIST_SNAPSHOT_H
