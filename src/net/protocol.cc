#include "net/protocol.h"

#include "support/bytes.h"

namespace dac::net {

namespace {

/** A reader over one wire payload. Overruns throw ProtocolError, and a
 *  string may be as long as a frame: the codec's 64-KiB default would
 *  reject a large Stats or FlightDump reply. */
ByteReader<ProtocolError>
wireReader(const std::vector<uint8_t> &payload)
{
    return {payload.data(), payload.size(), kMaxPayloadBytes};
}

} // namespace

std::vector<uint8_t>
encodeTuneRequest(const service::TuneRequest &request, uint8_t version)
{
    ByteWriter w;
    w.str(request.workload);
    w.f64(request.nativeSize);
    w.u64(request.seed);
    w.f64(request.deadlineSec);
    if (version >= 2) {
        w.u64(request.traceId);
        w.u8(request.sampled ? kRequestFlagSampled : 0);
    }
    return w.take();
}

service::TuneRequest
decodeTuneRequest(const std::vector<uint8_t> &payload, uint8_t version)
{
    auto r = wireReader(payload);
    service::TuneRequest request;
    request.workload = r.str();
    request.nativeSize = r.f64();
    request.seed = r.u64();
    request.deadlineSec = r.f64();
    if (version >= 2) {
        request.traceId = r.u64();
        const uint8_t flags = r.u8();
        if ((flags & ~kRequestFlagSampled) != 0)
            throw ProtocolError("unknown tune-request flags");
        request.sampled = (flags & kRequestFlagSampled) != 0;
    }
    r.expectEnd();
    return request;
}

std::vector<uint8_t>
encodeTuneResponse(const service::TuneResponse &response, uint8_t version)
{
    ByteWriter w;
    w.str(response.workload);
    w.f64(response.nativeSize);
    const auto &values = response.best.values();
    w.u32(static_cast<uint32_t>(values.size()));
    for (const double v : values)
        w.f64(v);
    w.f64(response.predictedTimeSec);
    w.f64(response.modelErrorPct);
    w.u8(response.modelCacheHit ? 1 : 0);
    w.u8(response.coalesced ? 1 : 0);
    w.f64(response.latencySec);
    w.u8(response.degraded ? 1 : 0);
    w.str(response.degradedReason);
    w.u32(static_cast<uint32_t>(response.buildRetries));
    w.u32(static_cast<uint32_t>(response.warnings.size()));
    for (const auto &warning : response.warnings) {
        w.str(warning.constraint);
        w.str(warning.message);
    }
    if (version >= 2) {
        w.u8(static_cast<uint8_t>(response.phases.size()));
        for (const auto &timing : response.phases) {
            w.u8(static_cast<uint8_t>(timing.phase));
            w.f64(timing.sec);
        }
    }
    return w.take();
}

service::TuneResponse
decodeTuneResponse(const std::vector<uint8_t> &payload,
                   const conf::ConfigSpace &space, uint8_t version)
{
    auto r = wireReader(payload);
    service::TuneResponse response;
    response.workload = r.str();
    response.nativeSize = r.f64();
    const uint32_t count = r.u32();
    if (count != space.size())
        throw ProtocolError(
            "config space mismatch: " + std::to_string(count) +
            " wire values vs " + std::to_string(space.size()) +
            " space parameters");
    std::vector<double> values;
    values.reserve(count);
    for (uint32_t i = 0; i < count; ++i)
        values.push_back(r.f64());
    response.best = conf::Configuration(space, std::move(values));
    response.predictedTimeSec = r.f64();
    response.modelErrorPct = r.f64();
    response.modelCacheHit = r.u8() != 0;
    response.coalesced = r.u8() != 0;
    response.latencySec = r.f64();
    response.degraded = r.u8() != 0;
    response.degradedReason = r.str();
    response.buildRetries = static_cast<int>(r.u32());
    // Two strings, each at least its u32 length prefix.
    const uint32_t warnings = r.count(8, "warning");
    response.warnings.reserve(warnings);
    for (uint32_t i = 0; i < warnings; ++i) {
        conf::ConstraintViolation v;
        v.constraint = r.str();
        v.message = r.str();
        response.warnings.push_back(std::move(v));
    }
    if (version >= 2) {
        const uint8_t phases = r.u8();
        response.phases.reserve(phases);
        for (uint8_t i = 0; i < phases; ++i) {
            service::PhaseTiming timing;
            const uint8_t raw = r.u8();
            if (raw >= service::kPhaseCount)
                throw ProtocolError("unknown phase id " +
                                    std::to_string(raw));
            timing.phase = static_cast<service::Phase>(raw);
            timing.sec = r.f64();
            response.phases.push_back(timing);
        }
    }
    r.expectEnd();
    return response;
}

void
patchSerializePhaseSec(std::vector<uint8_t> &payload, double sec)
{
    // Layout check: a v2 response with phases ends ... u8 phase-count,
    // then entries of (u8 phase, f64 sec); the trailing entry must be
    // Serialize, whose f64 is the last 8 bytes.
    constexpr size_t entryBytes = 9;
    if (payload.size() < entryBytes ||
        payload[payload.size() - entryBytes] !=
            static_cast<uint8_t>(service::Phase::Serialize))
        throw ProtocolError(
            "payload has no trailing serialize phase to patch");
    payload.resize(payload.size() - 8);
    ByteWriter w(std::move(payload));
    w.f64(sec);
    payload = w.take();
}

std::vector<uint8_t>
encodeError(const std::string &message)
{
    ByteWriter w;
    w.str(message);
    return w.take();
}

std::string
decodeError(const std::vector<uint8_t> &payload)
{
    auto r = wireReader(payload);
    std::string message = r.str();
    r.expectEnd();
    return message;
}

std::vector<uint8_t>
encodeStatsRequest(const StatsRequest &request)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(request.format));
    return w.take();
}

StatsRequest
decodeStatsRequest(const std::vector<uint8_t> &payload)
{
    auto r = wireReader(payload);
    StatsRequest request;
    const uint8_t format = r.u8();
    if (format > static_cast<uint8_t>(StatsFormat::Prometheus))
        throw ProtocolError("unknown stats format " +
                            std::to_string(format));
    request.format = static_cast<StatsFormat>(format);
    r.expectEnd();
    return request;
}

std::vector<uint8_t>
encodeFlightDumpRequest(const FlightDumpRequest &request)
{
    ByteWriter w;
    w.f64(request.windowSec);
    return w.take();
}

FlightDumpRequest
decodeFlightDumpRequest(const std::vector<uint8_t> &payload)
{
    auto r = wireReader(payload);
    FlightDumpRequest request;
    request.windowSec = r.f64();
    if (!(request.windowSec >= 0.0))
        throw ProtocolError("negative flight-dump window");
    r.expectEnd();
    return request;
}

std::vector<uint8_t>
encodeSnapshotRequest(const SnapshotRequest &request)
{
    ByteWriter w;
    w.u8(static_cast<uint8_t>(request.op));
    return w.take();
}

SnapshotRequest
decodeSnapshotRequest(const std::vector<uint8_t> &payload)
{
    auto r = wireReader(payload);
    SnapshotRequest request;
    const uint8_t op = r.u8();
    if (op > static_cast<uint8_t>(SnapshotOp::Persist))
        throw ProtocolError("unknown snapshot op " + std::to_string(op));
    request.op = static_cast<SnapshotOp>(op);
    r.expectEnd();
    return request;
}

std::vector<uint8_t>
encodeTextReply(const std::string &text)
{
    ByteWriter w;
    w.str(text);
    return w.take();
}

std::string
decodeTextReply(const std::vector<uint8_t> &payload)
{
    auto r = wireReader(payload);
    std::string text = r.str();
    r.expectEnd();
    return text;
}

} // namespace dac::net
