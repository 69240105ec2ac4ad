#include "net/frame.h"

#include "support/bytes.h"
#include "support/logging.h"

namespace dac::net {

bool
isKnownMsgType(uint8_t value)
{
    switch (static_cast<MsgType>(value)) {
    case MsgType::TuneRequest:
    case MsgType::TuneResponse:
    case MsgType::Error:
    case MsgType::Ping:
    case MsgType::Pong:
    case MsgType::Stats:
    case MsgType::StatsReply:
    case MsgType::FlightDump:
    case MsgType::FlightDumpReply:
    case MsgType::Snapshot:
    case MsgType::SnapshotReply:
        return true;
    }
    return false;
}

void
appendFrame(std::vector<uint8_t> &out, MsgType type, uint32_t request_id,
            const uint8_t *payload, size_t payload_len, uint8_t version)
{
    DAC_ASSERT(payload_len <= kMaxPayloadBytes,
               "frame payload exceeds the protocol ceiling");
    DAC_ASSERT(version >= kMinProtocolVersion &&
                   version <= kProtocolVersion,
               "frame version outside the speakable range");
    out.reserve(out.size() + kFrameHeaderBytes + payload_len);
    ByteWriter header(std::move(out));
    header.u32(kFrameMagic);
    header.u8(version);
    header.u8(static_cast<uint8_t>(type));
    // Reserved flags, zero until a later protocol version needs them.
    header.u16(0);
    header.u32(request_id);
    header.u32(static_cast<uint32_t>(payload_len));
    out = header.take();
    out.insert(out.end(), payload, payload + payload_len);
}

std::vector<uint8_t>
encodeFrame(MsgType type, uint32_t request_id,
            const std::vector<uint8_t> &payload, uint8_t version)
{
    std::vector<uint8_t> out;
    appendFrame(out, type, request_id, payload.data(), payload.size(),
                version);
    return out;
}

FrameDecoder::FrameDecoder(size_t max_payload)
    : maxPayload(max_payload)
{
}

void
FrameDecoder::feed(const uint8_t *data, size_t len)
{
    if (malformed || len == 0)
        return;
    // Compact once the consumed prefix dominates, so a long-lived
    // connection does not grow its buffer without bound.
    if (offset > 0 && offset >= buffer.size() / 2) {
        buffer.erase(buffer.begin(),
                     buffer.begin() + static_cast<ptrdiff_t>(offset));
        offset = 0;
    }
    buffer.insert(buffer.end(), data, data + len);
}

FrameDecoder::Result
FrameDecoder::next(Frame *out)
{
    DAC_ASSERT(out != nullptr, "FrameDecoder::next needs an out frame");
    if (malformed)
        return Result::Malformed;
    const size_t available = buffer.size() - offset;
    if (available < kFrameHeaderBytes)
        return Result::NeedMore;

    // The header is all buffered (checked above), so these reads
    // cannot overrun.
    const uint8_t *frame = buffer.data() + offset;
    ByteReader<ProtocolError> header(frame, kFrameHeaderBytes);
    if (header.u32() != kFrameMagic) {
        malformed = true;
        errorText = "bad frame magic";
        return Result::Malformed;
    }
    const uint8_t version = header.u8();
    if (version < kMinProtocolVersion || version > kProtocolVersion) {
        malformed = true;
        errorText =
            "unsupported protocol version " + std::to_string(version);
        return Result::Malformed;
    }
    // An unknown type byte is NOT malformed: the length field still
    // bounds the frame, so framing stays aligned. The frame is passed
    // through for the dispatch layer to answer with Error while the
    // connection lives on (forward compatibility with newer peers).
    const uint8_t type = header.u8();
    if (header.u16() != 0) {
        malformed = true;
        errorText = "nonzero reserved flags";
        return Result::Malformed;
    }
    const uint32_t request_id = header.u32();
    const uint32_t payload_len = header.u32();
    if (payload_len > maxPayload) {
        malformed = true;
        errorText = "oversized payload (" + std::to_string(payload_len) +
                    " bytes)";
        return Result::Malformed;
    }
    if (available < kFrameHeaderBytes + payload_len)
        return Result::NeedMore;

    out->type = static_cast<MsgType>(type);
    out->requestId = request_id;
    out->version = version;
    const uint8_t *body = frame + kFrameHeaderBytes;
    out->payload.assign(body, body + payload_len);
    offset += kFrameHeaderBytes + payload_len;
    return Result::Frame;
}

} // namespace dac::net
