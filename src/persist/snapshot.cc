#include "persist/snapshot.h"

#include <utility>

#include "ml/flat_ensemble.h"
#include "persist/model_io.h"
#include "support/checksum.h"
#include "support/mapped_file.h"

namespace dac::persist {
namespace {

void
writeHeader(std::vector<uint8_t> &out, const std::vector<uint8_t> &payload)
{
    ByteWriter w;
    w.u32(kSnapshotMagic);
    w.u16(kSnapshotVersion);
    w.u16(0); // flags
    w.u64(payload.size());
    w.u32(crc32c(payload.data(), payload.size()));
    w.u64(0); // reserved
    const std::vector<uint8_t> &head = w.bytes();
    w.u32(crc32c(head.data(), SnapshotHeader::kBytes - 4));
    out = w.take();
}

std::vector<uint8_t>
encodePayload(const SnapshotView &view)
{
    ByteWriter w;
    w.str(*view.workload);
    w.str(*view.cluster);
    w.i32(view.sizeBand);
    w.f64(view.modelErrorPct);
    w.f64(view.overhead->collectingHours);
    w.f64(view.overhead->modelingSec);
    w.f64(view.overhead->searchingSec);
    w.u64(static_cast<uint64_t>(view.overhead->trainingRuns));

    const auto &vectors = *view.vectors;
    const uint32_t configLen =
        vectors.empty() ? 0
                        : static_cast<uint32_t>(vectors[0].config.size());
    w.u32(static_cast<uint32_t>(vectors.size()));
    w.u32(configLen);
    for (const auto &v : vectors) {
        if (v.config.size() != configLen) {
            throw DecodeError("training vectors disagree on config width");
        }
        w.f64(v.timeSec);
        for (double c : v.config)
            w.f64(c);
        w.f64(v.dsizeBytes);
    }

    ModelIo::writeModel(w, *view.model);
    return w.take();
}

ModelSnapshot
decodePayload(ByteReader &r)
{
    ModelSnapshot snap;
    snap.workload = r.str();
    snap.cluster = r.str();
    snap.sizeBand = r.i32();
    snap.modelErrorPct = r.f64();
    snap.overhead.collectingHours = r.f64();
    snap.overhead.modelingSec = r.f64();
    snap.overhead.searchingSec = r.f64();
    snap.overhead.trainingRuns = static_cast<size_t>(r.u64());

    const uint32_t vectorCount = r.count(16, "training vector");
    const uint32_t configLen = r.u32();
    if (configLen > (1u << 16))
        throw DecodeError("training vector config width too large");
    snap.vectors.reserve(vectorCount);
    for (uint32_t i = 0; i < vectorCount; ++i) {
        core::PerfVector v;
        v.timeSec = r.f64();
        v.config.reserve(configLen);
        for (uint32_t j = 0; j < configLen; ++j)
            v.config.push_back(r.f64());
        v.dsizeBytes = r.f64();
        snap.vectors.push_back(std::move(v));
    }

    snap.model = ModelIo::readModel(r);
    r.expectEnd();
    // readModel's rules are exactly what compile() assumes.
    snap.compiled = snap.model->compile();
    return snap;
}

} // namespace

const char *
snapshotErrorName(SnapshotError error)
{
    switch (error) {
      case SnapshotError::None:
        return "ok";
      case SnapshotError::IoError:
        return "io-error";
      case SnapshotError::Truncated:
        return "truncated";
      case SnapshotError::BadMagic:
        return "bad-magic";
      case SnapshotError::BadHeaderChecksum:
        return "bad-header-checksum";
      case SnapshotError::BadVersion:
        return "bad-version";
      case SnapshotError::BadFlags:
        return "bad-flags";
      case SnapshotError::BadLength:
        return "bad-length";
      case SnapshotError::BadChecksum:
        return "bad-checksum";
      case SnapshotError::Corrupt:
        return "corrupt";
      case SnapshotError::UnsupportedModel:
        return "unsupported-model";
    }
    return "unknown";
}

SnapshotError
readSnapshotHeader(const uint8_t *data, size_t len, SnapshotHeader *out)
{
    if (len < SnapshotHeader::kBytes)
        return SnapshotError::Truncated;

    ByteReader r(data, SnapshotHeader::kBytes);
    SnapshotHeader h;
    h.magic = r.u32();
    h.version = r.u16();
    h.flags = r.u16();
    h.payloadLen = r.u64();
    h.payloadCrc = r.u32();
    h.reserved = r.u64();
    h.headerCrc = r.u32();
    if (out != nullptr)
        *out = h;

    if (h.magic != kSnapshotMagic)
        return SnapshotError::BadMagic;
    if (crc32c(data, SnapshotHeader::kBytes - 4) != h.headerCrc)
        return SnapshotError::BadHeaderChecksum;
    if (h.version != kSnapshotVersion)
        return SnapshotError::BadVersion;
    if (h.flags != 0 || h.reserved != 0)
        return SnapshotError::BadFlags;
    return SnapshotError::None;
}

std::vector<uint8_t>
encodeSnapshot(const SnapshotView &view)
{
    std::vector<uint8_t> payload = encodePayload(view);
    std::vector<uint8_t> image;
    writeHeader(image, payload);
    image.insert(image.end(), payload.begin(), payload.end());
    return image;
}

SnapshotLoadResult
decodeSnapshot(const uint8_t *data, size_t len)
{
    SnapshotLoadResult result;

    SnapshotHeader header;
    result.error = readSnapshotHeader(data, len, &header);
    if (result.error != SnapshotError::None) {
        result.message = "header rejected: ";
        result.message += snapshotErrorName(result.error);
        return result;
    }
    const size_t bodyLen = len - SnapshotHeader::kBytes;
    if (bodyLen < header.payloadLen) {
        result.error = SnapshotError::Truncated;
        result.message = "payload shorter than header declares";
        return result;
    }
    if (bodyLen > header.payloadLen) {
        result.error = SnapshotError::BadLength;
        result.message = "trailing bytes after declared payload";
        return result;
    }
    const uint8_t *payload = data + SnapshotHeader::kBytes;
    if (crc32c(payload, bodyLen) != header.payloadCrc) {
        result.error = SnapshotError::BadChecksum;
        result.message = "payload checksum mismatch";
        return result;
    }

    try {
        ByteReader r(payload, bodyLen);
        result.snapshot = decodePayload(r);
    } catch (const DecodeError &e) {
        result.error = e.code();
        result.message = e.what();
    }
    return result;
}

bool
saveSnapshotFile(const std::string &path, const SnapshotView &view,
                 std::string *error)
{
    std::vector<uint8_t> image;
    try {
        image = encodeSnapshot(view);
    } catch (const DecodeError &e) {
        if (error != nullptr)
            *error = e.what();
        return false;
    }
    return atomicWriteFile(path, image.data(), image.size(), error);
}

SnapshotLoadResult
loadSnapshotFile(const std::string &path)
{
    MappedFile file;
    std::string ioError;
    if (!file.open(path, &ioError)) {
        SnapshotLoadResult result;
        result.error = SnapshotError::IoError;
        result.message = ioError;
        return result;
    }
    return decodeSnapshot(file.data(), file.size());
}

SnapshotView
viewOf(const ModelSnapshot &snapshot)
{
    SnapshotView view;
    view.workload = &snapshot.workload;
    view.cluster = &snapshot.cluster;
    view.sizeBand = snapshot.sizeBand;
    view.modelErrorPct = snapshot.modelErrorPct;
    view.overhead = &snapshot.overhead;
    view.vectors = &snapshot.vectors;
    view.model = snapshot.model.get();
    return view;
}

} // namespace dac::persist
