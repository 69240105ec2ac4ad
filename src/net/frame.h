/**
 * @file
 * The DAC wire protocol's framing layer: a versioned little-endian
 * binary frame (magic, version, type, request id, length-prefixed
 * payload) plus an incremental decoder that reassembles frames from
 * arbitrarily split reads.
 *
 * Framing and payload encoding are separate layers: this file moves
 * opaque payload bytes; protocol.h gives them meaning. Both layers
 * write and read through the one byte codec (support/bytes.h); a wire
 * reader throws ProtocolError, declared here. The decoder is
 * deliberately paranoid — a stream is untrusted input — and classifies
 * every defect (bad magic, unknown version, oversized length) as
 * Malformed so the server can drop the connection instead of guessing
 * at resynchronization. An unknown *type* byte is the one forgivable
 * defect: framing is still intact (the length field says where the
 * frame ends), so the decoder passes the frame through and lets the
 * dispatch layer answer Error while keeping the stream alive — a newer
 * client talking to an older server degrades per-feature, not
 * per-connection.
 *
 * Version history: v1 framed the original request/response pair; v2
 * (this build) adds trace context to TuneRequest, the phase breakdown
 * to TuneResponse, and the Stats/FlightDump/Snapshot admin frames. The header
 * layout is unchanged, and v1 frames remain fully decodable.
 */

#ifndef DAC_NET_FRAME_H
#define DAC_NET_FRAME_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace dac::net {

/** A payload that violates the protocol (truncated, trailing bytes,
 *  or inconsistent with the receiver's config space): what a wire
 *  ByteReader (support/bytes.h) throws on overrun. */
struct ProtocolError : std::runtime_error
{
    explicit ProtocolError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

/** Frame type tag (one byte on the wire). */
enum class MsgType : uint8_t {
    /** Payload: an encoded TuneRequest (protocol.h). */
    TuneRequest = 1,
    /** Payload: an encoded TuneResponse. */
    TuneResponse = 2,
    /** Payload: a UTF-8 error message; requestId echoes the request
     *  that failed (0 when the error is connection-level). */
    Error = 3,
    /** Health check; empty payload, answered in the event loop. */
    Ping = 4,
    /** Answer to Ping; requestId echoed. */
    Pong = 5,
    /** v2: live stats query (protocol.h StatsRequest), answered in
     *  the event loop without touching the worker pool. */
    Stats = 6,
    /** v2: answer to Stats; payload is the rendered snapshot. */
    StatsReply = 7,
    /** v2: flight-recorder dump request (protocol.h
     *  FlightDumpRequest), answered in the event loop. */
    FlightDump = 8,
    /** v2: answer to FlightDump; payload is the JSON dump. */
    FlightDumpReply = 9,
    /** v2: snapshot admin frame (protocol.h SnapshotRequest) —
     *  inspect the persistence state or trigger a persist-now pass;
     *  answered in the event loop. */
    Snapshot = 10,
    /** v2: answer to Snapshot; payload is a JSON report. */
    SnapshotReply = 11,
};

/** True for the MsgType values the protocol defines. */
[[nodiscard]] bool isKnownMsgType(uint8_t value);

/** Start-of-frame marker; little-endian on the wire. */
inline constexpr uint32_t kFrameMagic = 0xDAC0FA3E;
/** Protocol version this build speaks (and emits by default). */
inline constexpr uint8_t kProtocolVersion = 2;
/** Oldest version this build still accepts and answers. */
inline constexpr uint8_t kMinProtocolVersion = 1;
/** Frame header size on the wire, bytes. */
inline constexpr size_t kFrameHeaderBytes = 16;
/** Default payload-size ceiling (1 MiB): a TuneResponse is a few
 *  hundred bytes, so anything near this is garbage or abuse. */
inline constexpr size_t kMaxPayloadBytes = size_t{1} << 20;

/**
 * One decoded frame.
 */
struct Frame
{
    MsgType type = MsgType::Error;
    /** Caller-chosen correlation id; responses echo it, so a client
     *  may pipeline requests and match answers out of order. */
    uint32_t requestId = 0;
    /** Wire protocol version the frame arrived with; the server frames
     *  its reply with the same version so v1 clients never see v2
     *  payload fields. */
    uint8_t version = kProtocolVersion;
    std::vector<uint8_t> payload;
};

/**
 * Append one encoded frame to `out`.
 *
 * Appending (rather than returning) is the write-coalescing hook: the
 * server encodes every response of a batch into one buffer and hands
 * the kernel a single write. `version` is the wire version stamped in
 * the header — kProtocolVersion unless answering an older client.
 */
void appendFrame(std::vector<uint8_t> &out, MsgType type,
                 uint32_t request_id, const uint8_t *payload,
                 size_t payload_len, uint8_t version = kProtocolVersion);

/** Convenience: one frame as a fresh buffer. */
[[nodiscard]] std::vector<uint8_t>
encodeFrame(MsgType type, uint32_t request_id,
            const std::vector<uint8_t> &payload,
            uint8_t version = kProtocolVersion);

/**
 * Incremental frame decoder.
 *
 * feed() accepts whatever a socket read produced — half a header, ten
 * frames, anything — and next() yields completed frames until the
 * residue is a prefix. A Malformed verdict is sticky: framing has lost
 * byte alignment and the connection must be closed.
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(size_t max_payload = kMaxPayloadBytes);

    enum class Result {
        /** A complete frame was produced. */
        Frame,
        /** The buffered bytes are a valid prefix; feed more. */
        NeedMore,
        /** The stream violates the protocol; close the connection. */
        Malformed,
    };

    /** Buffer `len` more wire bytes. No-op once malformed. */
    void feed(const uint8_t *data, size_t len);

    /** Extract the next complete frame into `out` if possible. */
    [[nodiscard]] Result next(Frame *out);

    /** Why the stream is malformed (empty until it is). */
    [[nodiscard]] const std::string &error() const { return errorText; }

    /** Bytes buffered and not yet consumed by a decoded frame. */
    [[nodiscard]] size_t buffered() const
    {
        return buffer.size() - offset;
    }

  private:
    std::vector<uint8_t> buffer;
    /** Consumed prefix of `buffer`; compacted when it grows. */
    size_t offset = 0;
    size_t maxPayload;
    bool malformed = false;
    std::string errorText;
};

} // namespace dac::net

#endif // DAC_NET_FRAME_H
