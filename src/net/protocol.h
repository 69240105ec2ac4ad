/**
 * @file
 * Payload encoding of the DAC wire protocol: how a TuneRequest and a
 * TuneResponse serialize into the opaque bytes a frame (frame.h)
 * carries.
 *
 * The bytes follow the one codec's rules (support/bytes.h):
 * little-endian integers, doubles as their IEEE-754 bit pattern — so a
 * configuration decoded from the wire is bit-identical to the one the
 * service produced, the property the byte-identity tests and the wire
 * golden pin — and u32-length-prefixed UTF-8 strings, capped by the
 * frame ceiling. Decoders read through a bounds-checked ByteReader and
 * throw ProtocolError (frame.h) on truncated or trailing bytes or an
 * impossible count; the server answers such payloads with an Error
 * frame rather than dying.
 */

#ifndef DAC_NET_PROTOCOL_H
#define DAC_NET_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

#include "conf/space.h"
#include "net/frame.h"
#include "service/request.h"

namespace dac::net {

/** TuneRequest v2 flags byte: bit 0 = the sampling decision; all
 *  other bits must be zero (reserved). */
inline constexpr uint8_t kRequestFlagSampled = 0x01;

/**
 * TuneRequest -> payload bytes (for a MsgType::TuneRequest frame).
 * `version` picks the wire dialect: v1 stops after the deadline (the
 * bytes a v1 build emitted, bit for bit); v2 appends the trace id and
 * a flags byte (bit 0 = sampled).
 */
[[nodiscard]] std::vector<uint8_t>
encodeTuneRequest(const service::TuneRequest &request,
                  uint8_t version = kProtocolVersion);

/**
 * Payload bytes -> TuneRequest; throws ProtocolError when invalid.
 * A v1 payload decodes with traceId 0 / sampled true, so the service
 * treats old clients exactly as before.
 */
[[nodiscard]] service::TuneRequest
decodeTuneRequest(const std::vector<uint8_t> &payload,
                  uint8_t version = kProtocolVersion);

/**
 * TuneResponse -> payload bytes. The configuration travels as its raw
 * value vector (space order); warnings and the degradation reason are
 * typed fields, not free text on stderr. v2 appends the per-phase
 * latency breakdown; v1 omits it (bit-identical to a v1 build).
 */
[[nodiscard]] std::vector<uint8_t>
encodeTuneResponse(const service::TuneResponse &response,
                   uint8_t version = kProtocolVersion);

/**
 * Payload bytes -> TuneResponse over `space` (the receiver must speak
 * the same config space; the value count is checked against it).
 */
[[nodiscard]] service::TuneResponse
decodeTuneResponse(const std::vector<uint8_t> &payload,
                   const conf::ConfigSpace &space,
                   uint8_t version = kProtocolVersion);

/**
 * Overwrite the seconds of the trailing Phase::Serialize entry of an
 * encoded v2 TuneResponse payload. The transport appends a
 * placeholder serialize entry before encoding (a payload cannot know
 * its own encoding cost up front) and patches the real duration here —
 * the entry's f64 is the last 8 payload bytes by construction. Throws
 * ProtocolError when the payload carries no such trailing entry.
 */
void patchSerializePhaseSec(std::vector<uint8_t> &payload, double sec);

/** Error-frame payload: just the message string. */
[[nodiscard]] std::vector<uint8_t>
encodeError(const std::string &message);

/** Error-frame payload -> message; throws ProtocolError when invalid. */
[[nodiscard]] std::string
decodeError(const std::vector<uint8_t> &payload);

/** Rendering requested by a Stats frame. */
enum class StatsFormat : uint8_t {
    /** MetricsRegistry::renderJson() + serving gauges. */
    Json = 0,
    /** Prometheus text exposition. */
    Prometheus = 1,
};

/** Payload of a MsgType::Stats frame (v2). */
struct StatsRequest
{
    StatsFormat format = StatsFormat::Json;
};

[[nodiscard]] std::vector<uint8_t>
encodeStatsRequest(const StatsRequest &request);

[[nodiscard]] StatsRequest
decodeStatsRequest(const std::vector<uint8_t> &payload);

/** Payload of a MsgType::FlightDump frame (v2). */
struct FlightDumpRequest
{
    /** How far back the dump reaches, seconds. */
    double windowSec = 30.0;
};

[[nodiscard]] std::vector<uint8_t>
encodeFlightDumpRequest(const FlightDumpRequest &request);

[[nodiscard]] FlightDumpRequest
decodeFlightDumpRequest(const std::vector<uint8_t> &payload);

/** Operation requested by a Snapshot admin frame (v2). */
enum class SnapshotOp : uint8_t {
    /** Report persistence state (dir, cache keys, save/restore
     *  counters) as JSON; touches no disk. */
    Inspect = 0,
    /** Persist every cached model now (the SIGTERM-drain pass, but on
     *  demand); the reply reports saved/failed counts. */
    Persist = 1,
};

/** Payload of a MsgType::Snapshot frame (v2). */
struct SnapshotRequest
{
    SnapshotOp op = SnapshotOp::Inspect;
};

[[nodiscard]] std::vector<uint8_t>
encodeSnapshotRequest(const SnapshotRequest &request);

[[nodiscard]] SnapshotRequest
decodeSnapshotRequest(const std::vector<uint8_t> &payload);

/** StatsReply / FlightDumpReply / SnapshotReply payload: the rendered
 *  text. */
[[nodiscard]] std::vector<uint8_t>
encodeTextReply(const std::string &text);

/** StatsReply / FlightDumpReply payload -> text; throws ProtocolError
 *  when invalid. */
[[nodiscard]] std::string
decodeTextReply(const std::vector<uint8_t> &payload);

} // namespace dac::net

#endif // DAC_NET_PROTOCOL_H
