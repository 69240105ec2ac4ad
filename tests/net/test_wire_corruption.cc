/**
 * @file
 * The wire's corruption battery and golden, modelled on the snapshot
 * battery (tests/persist/test_snapshot_corruption.cc).
 *
 * The samples are one v1 and one v2 frame of each message kind that
 * version has, plus a text reply larger than 64 KiB. The battery
 * replays every truncation length, every single-bit flip and every
 * byte set to 0x00 and to 0xff through FrameDecoder and then the
 * payload decoder the frame's type selects, as the server and the
 * client do. Each mutation must decode or be refused as a protocol
 * error (a Malformed stream, a ProtocolError payload); anything else —
 * std::bad_alloc, std::length_error, an ASan report in the sanitizer
 * job — fails. Beyond 4 KiB (only the large reply) offsets are
 * sampled: its interior is opaque text, where every offset takes the
 * same decoder branch.
 *
 * The golden (tests/net/data/wire_frames.golden) pins the exact bytes
 * of the samples, so a change to an encoder fails here even when the
 * matching decoder changes with it and every round trip still passes.
 * Regenerating (only for an intentional wire change, which also bumps
 * kProtocolVersion):
 *   DAC_REGEN_GOLDEN=1 ./test_net --gtest_filter='WireGolden.*'
 * then commit the rewritten file.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"

#ifndef DAC_NET_DATA_DIR
#error "build must define DAC_NET_DATA_DIR"
#endif

namespace dac::net {
namespace {

const std::string kGoldenPath =
    std::string(DAC_NET_DATA_DIR) + "/wire_frames.golden";

struct WireSample
{
    std::string name;
    MsgType type;
    uint8_t version;
    std::vector<uint8_t> payload;
};

service::TuneRequest
sampleRequest()
{
    service::TuneRequest request;
    request.workload = "TS";
    request.nativeSize = 40.5;
    request.seed = 0x0123456789ABCDEFULL;
    request.deadlineSec = 0.25;
    request.traceId = 0xFEEDFACE12345678ULL;
    request.sampled = false;
    return request;
}

service::TuneResponse
sampleResponse()
{
    const auto &space = conf::ConfigSpace::spark();
    std::vector<double> values(space.size());
    for (size_t i = 0; i < values.size(); ++i)
        values[i] = 0.1 + 1.25 * static_cast<double>(i);
    service::TuneResponse response;
    response.workload = "KM";
    response.nativeSize = 200.0;
    response.best = conf::Configuration(space, std::move(values));
    response.predictedTimeSec = 123.456789;
    response.modelErrorPct = 7.25;
    response.modelCacheHit = true;
    response.coalesced = false;
    response.latencySec = 0.0625;
    response.degraded = true;
    response.degradedReason = "search-truncated";
    response.buildRetries = 3;
    response.warnings.push_back(
        {"executor-memory-fit", "executors overflow node RAM"});
    response.warnings.push_back({"offheap-consistency", "size is zero"});
    response.phases.push_back({service::Phase::Decode, 1e-5});
    response.phases.push_back({service::Phase::Queue, 2e-4});
    response.phases.push_back({service::Phase::Search, 0.125});
    response.phases.push_back({service::Phase::Serialize, 3e-6});
    return response;
}

/** The pinned frames: one v1 and one v2 frame of each message kind
 *  that version has (the admin kinds are v2 only). */
std::vector<WireSample>
goldenSamples()
{
    const auto request = sampleRequest();
    const auto response = sampleResponse();
    std::vector<WireSample> samples;
    for (const uint8_t v : {uint8_t{1}, uint8_t{2}}) {
        const std::string tag = "-v" + std::to_string(v);
        samples.push_back({"tune-request" + tag, MsgType::TuneRequest, v,
                           encodeTuneRequest(request, v)});
        samples.push_back({"tune-response" + tag, MsgType::TuneResponse,
                           v, encodeTuneResponse(response, v)});
        samples.push_back({"error" + tag, MsgType::Error, v,
                           encodeError("boom: no such workload")});
        samples.push_back({"ping" + tag, MsgType::Ping, v, {}});
        samples.push_back({"pong" + tag, MsgType::Pong, v, {}});
    }
    samples.push_back({"stats-v2", MsgType::Stats, 2,
                       encodeStatsRequest({StatsFormat::Prometheus})});
    samples.push_back(
        {"stats-reply-v2", MsgType::StatsReply, 2,
         encodeTextReply("{\"counters\":{\"requests.served\":3}}")});
    samples.push_back({"flight-dump-v2", MsgType::FlightDump, 2,
                       encodeFlightDumpRequest({12.5})});
    samples.push_back(
        {"flight-dump-reply-v2", MsgType::FlightDumpReply, 2,
         encodeTextReply("{\"records\":[{\"id\":7,\"phase\":\"search\"}]}")});
    samples.push_back({"snapshot-v2", MsgType::Snapshot, 2,
                       encodeSnapshotRequest({SnapshotOp::Persist})});
    samples.push_back(
        {"snapshot-reply-v2", MsgType::SnapshotReply, 2,
         encodeTextReply("{\"dir\":\"snapshots\",\"op\":\"inspect\"}")});
    return samples;
}

/** A FlightDump reply past the 64-KiB string cap a snapshot reader
 *  applies; the wire must carry it. */
WireSample
largeTextReply()
{
    std::string text = "{\"records\":\"";
    while (text.size() < (size_t{64} << 10) + 1000)
        text += "0123456789abcdef";
    text += "\"}";
    return {"flight-dump-reply-large-v2", MsgType::FlightDumpReply, 2,
            encodeTextReply(text)};
}

std::vector<uint8_t>
frameOf(const WireSample &sample, size_t index)
{
    // Distinct request ids with every byte nonzero.
    return encodeFrame(sample.type,
                       0x01020300u + static_cast<uint32_t>(index),
                       sample.payload, sample.version);
}

/**
 * Decode `frame` with the decoder its type selects and encode the
 * result again; kinds without a payload codec pass through. Throws
 * ProtocolError for a payload the decoder refuses.
 */
std::vector<uint8_t>
reencode(const Frame &frame)
{
    const auto &p = frame.payload;
    switch (frame.type) {
    case MsgType::TuneRequest:
        return encodeTuneRequest(decodeTuneRequest(p, frame.version),
                                 frame.version);
    case MsgType::TuneResponse:
        return encodeTuneResponse(
            decodeTuneResponse(p, conf::ConfigSpace::spark(),
                               frame.version),
            frame.version);
    case MsgType::Error:
        return encodeError(decodeError(p));
    case MsgType::Stats:
        return encodeStatsRequest(decodeStatsRequest(p));
    case MsgType::FlightDump:
        return encodeFlightDumpRequest(decodeFlightDumpRequest(p));
    case MsgType::Snapshot:
        return encodeSnapshotRequest(decodeSnapshotRequest(p));
    case MsgType::StatsReply:
    case MsgType::FlightDumpReply:
    case MsgType::SnapshotReply:
        return encodeTextReply(decodeTextReply(p));
    case MsgType::Ping:
    case MsgType::Pong:
        break;
    }
    // Ping, Pong and unknown types: the payload is not decoded.
    return p;
}

/**
 * Feed `wire` through a fresh FrameDecoder and decode every frame it
 * yields. Returns "" when the bytes decode or are refused as a
 * protocol error, and otherwise what escaped.
 */
std::string
unexpectedFailure(const std::vector<uint8_t> &wire)
{
    try {
        FrameDecoder decoder;
        decoder.feed(wire.data(), wire.size());
        Frame frame;
        while (decoder.next(&frame) == FrameDecoder::Result::Frame) {
            try {
                (void)reencode(frame);
            } catch (const ProtocolError &) {
            }
        }
    } catch (const std::exception &e) {
        return e.what();
    }
    return "";
}

/** Offsets the battery mutates: all of them up to 4 KiB, beyond that
 *  the first and last 256 and a stride through the opaque middle. */
std::vector<size_t>
offsetsToTry(size_t size)
{
    constexpr size_t kFull = 4096;
    constexpr size_t kEdge = 256;
    std::vector<size_t> offsets;
    for (size_t at = 0; at < size; ++at) {
        if (size <= kFull || at < kEdge || at >= size - kEdge ||
            at % 997 == 0)
            offsets.push_back(at);
    }
    return offsets;
}

std::vector<WireSample>
batterySamples()
{
    auto samples = goldenSamples();
    samples.push_back(largeTextReply());
    return samples;
}

std::string
toHex(const std::vector<uint8_t> &bytes)
{
    std::string hex;
    hex.reserve(2 * bytes.size());
    char digits[3];
    for (const uint8_t b : bytes) {
        std::snprintf(digits, sizeof(digits), "%02x", b);
        hex += digits;
    }
    return hex;
}

TEST(WireCorruption, EveryFrameTruncationIsNeedMore)
{
    const auto samples = batterySamples();
    for (size_t s = 0; s < samples.size(); ++s) {
        const auto wire = frameOf(samples[s], s);
        // Fed one byte at a time, the decoder holds every proper
        // prefix in turn: each must ask for more, and never be
        // mistaken for a frame or a broken stream.
        FrameDecoder decoder;
        Frame frame;
        for (size_t len = 1; len <= wire.size(); ++len) {
            decoder.feed(&wire[len - 1], 1);
            const auto expected = len < wire.size()
                                      ? FrameDecoder::Result::NeedMore
                                      : FrameDecoder::Result::Frame;
            ASSERT_EQ(decoder.next(&frame), expected)
                << samples[s].name << " truncated to " << len;
        }
        EXPECT_EQ(frame.payload, samples[s].payload) << samples[s].name;
    }
}

TEST(WireCorruption, EveryPayloadTruncationIsProtocolError)
{
    for (const auto &sample : batterySamples()) {
        for (const size_t len : offsetsToTry(sample.payload.size())) {
            Frame frame;
            frame.type = sample.type;
            frame.version = sample.version;
            frame.payload.assign(sample.payload.begin(),
                                 sample.payload.begin() +
                                     static_cast<ptrdiff_t>(len));
            // Every payload codec is self-delimiting, so no proper
            // prefix is a whole message.
            EXPECT_THROW((void)reencode(frame), ProtocolError)
                << sample.name << " payload truncated to " << len;
        }
    }
}

TEST(WireCorruption, BitAndByteFlipsDecodeOrThrowProtocolError)
{
    const auto samples = batterySamples();
    for (size_t s = 0; s < samples.size(); ++s) {
        auto wire = frameOf(samples[s], s);
        for (const size_t at : offsetsToTry(wire.size())) {
            const uint8_t original = wire[at];
            std::vector<uint8_t> values = {0x00, 0xff};
            for (int bit = 0; bit < 8; ++bit)
                values.push_back(
                    static_cast<uint8_t>(original ^ (1u << bit)));
            for (const uint8_t value : values) {
                wire[at] = value;
                ASSERT_EQ(unexpectedFailure(wire), "")
                    << samples[s].name << ": byte " << at << " set to "
                    << static_cast<int>(value);
            }
            wire[at] = original;
        }
        // The battery restored every byte: the frame decodes again.
        EXPECT_EQ(unexpectedFailure(wire), "") << samples[s].name;
    }
}

TEST(WireGolden, EncodersReproduceCommittedBytes)
{
    const auto samples = goldenSamples();
    const char *regen = std::getenv("DAC_REGEN_GOLDEN");
    if (regen != nullptr && regen[0] != '\0' && regen[0] != '0') {
        std::ofstream out(kGoldenPath);
        ASSERT_TRUE(out.is_open()) << kGoldenPath;
        for (size_t s = 0; s < samples.size(); ++s)
            out << samples[s].name << " "
                << toHex(frameOf(samples[s], s)) << "\n";
    }

    std::ifstream in(kGoldenPath);
    ASSERT_TRUE(in.is_open())
        << kGoldenPath << " (regenerate with DAC_REGEN_GOLDEN=1)";
    std::map<std::string, std::string> golden;
    std::string name;
    std::string hex;
    while (in >> name >> hex)
        golden[name] = hex;
    EXPECT_EQ(golden.size(), samples.size());

    for (size_t s = 0; s < samples.size(); ++s) {
        const auto wire = frameOf(samples[s], s);
        EXPECT_EQ(toHex(wire), golden[samples[s].name]) << samples[s].name;

        // The decoders agree with the pinned bytes: decoding and
        // encoding again reproduces them exactly.
        FrameDecoder decoder;
        decoder.feed(wire.data(), wire.size());
        Frame frame;
        ASSERT_EQ(decoder.next(&frame), FrameDecoder::Result::Frame);
        EXPECT_EQ(reencode(frame), samples[s].payload) << samples[s].name;
    }
}

} // namespace
} // namespace dac::net
