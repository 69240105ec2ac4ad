/**
 * @file
 * Tests for the wire framing layer and the payload protocol: frame
 * round-trips, partial-read reassembly at every split point, malformed
 * frame rejection, and bit-exact payload codecs.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/protocol.h"
#include "support/bytes.h"

namespace dac::net {
namespace {

std::vector<uint8_t>
bytesOf(const std::string &text)
{
    return {text.begin(), text.end()};
}

TEST(Frame, RoundTripsOneFrame)
{
    const auto payload = bytesOf("hello frames");
    const auto wire = encodeFrame(MsgType::TuneRequest, 42, payload);
    EXPECT_EQ(wire.size(), kFrameHeaderBytes + payload.size());

    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    Frame frame;
    ASSERT_EQ(decoder.next(&frame), FrameDecoder::Result::Frame);
    EXPECT_EQ(frame.type, MsgType::TuneRequest);
    EXPECT_EQ(frame.requestId, 42u);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_EQ(decoder.next(&frame), FrameDecoder::Result::NeedMore);
    EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(Frame, RoundTripsEmptyPayload)
{
    const auto wire = encodeFrame(MsgType::Ping, 7, {});
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    Frame frame;
    ASSERT_EQ(decoder.next(&frame), FrameDecoder::Result::Frame);
    EXPECT_EQ(frame.type, MsgType::Ping);
    EXPECT_EQ(frame.requestId, 7u);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(Frame, ReassemblesAtEverySplitPoint)
{
    // Two frames back to back; the stream may split anywhere,
    // including inside a header or across the frame boundary.
    std::vector<uint8_t> wire;
    appendFrame(wire, MsgType::TuneRequest, 1,
                reinterpret_cast<const uint8_t *>("abc"), 3);
    appendFrame(wire, MsgType::TuneResponse, 2,
                reinterpret_cast<const uint8_t *>("defgh"), 5);

    for (size_t split = 0; split <= wire.size(); ++split) {
        FrameDecoder decoder;
        decoder.feed(wire.data(), split);
        std::vector<Frame> got;
        Frame frame;
        while (decoder.next(&frame) == FrameDecoder::Result::Frame)
            got.push_back(frame);
        decoder.feed(wire.data() + split, wire.size() - split);
        while (decoder.next(&frame) == FrameDecoder::Result::Frame)
            got.push_back(frame);

        ASSERT_EQ(got.size(), 2u) << "split at " << split;
        EXPECT_EQ(got[0].type, MsgType::TuneRequest);
        EXPECT_EQ(got[0].requestId, 1u);
        EXPECT_EQ(got[0].payload, bytesOf("abc"));
        EXPECT_EQ(got[1].type, MsgType::TuneResponse);
        EXPECT_EQ(got[1].requestId, 2u);
        EXPECT_EQ(got[1].payload, bytesOf("defgh"));
    }
}

TEST(Frame, ReassemblesByteByByte)
{
    const auto payload = bytesOf("one byte at a time");
    const auto wire = encodeFrame(MsgType::Error, 9, payload);
    FrameDecoder decoder;
    Frame frame;
    for (size_t i = 0; i + 1 < wire.size(); ++i) {
        decoder.feed(&wire[i], 1);
        EXPECT_EQ(decoder.next(&frame), FrameDecoder::Result::NeedMore);
    }
    decoder.feed(&wire[wire.size() - 1], 1);
    ASSERT_EQ(decoder.next(&frame), FrameDecoder::Result::Frame);
    EXPECT_EQ(frame.payload, payload);
}

TEST(Frame, RejectsBadMagic)
{
    auto wire = encodeFrame(MsgType::Ping, 1, {});
    wire[0] ^= 0xFF;
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    Frame frame;
    EXPECT_EQ(decoder.next(&frame), FrameDecoder::Result::Malformed);
    EXPECT_FALSE(decoder.error().empty());
}

TEST(Frame, RejectsUnknownVersion)
{
    auto wire = encodeFrame(MsgType::Ping, 1, {});
    wire[4] = kProtocolVersion + 1;
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    Frame frame;
    EXPECT_EQ(decoder.next(&frame), FrameDecoder::Result::Malformed);
}

TEST(Frame, UnknownTypePassesThroughForDispatchError)
{
    // Forward compatibility: a well-framed message of a type this
    // build does not know keeps the stream aligned — the decoder
    // hands it up so the dispatch layer can answer an Error frame
    // and keep the connection alive.
    auto wire = encodeFrame(MsgType::Ping, 1, {});
    wire[5] = 0xEE; // not a MsgType
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    Frame frame;
    ASSERT_EQ(decoder.next(&frame), FrameDecoder::Result::Frame);
    EXPECT_EQ(static_cast<uint8_t>(frame.type), 0xEE);
    EXPECT_EQ(frame.requestId, 1u);

    // The stream is still usable afterwards.
    const auto good = encodeFrame(MsgType::Ping, 2, {});
    decoder.feed(good.data(), good.size());
    ASSERT_EQ(decoder.next(&frame), FrameDecoder::Result::Frame);
    EXPECT_EQ(frame.type, MsgType::Ping);
    EXPECT_EQ(frame.requestId, 2u);
}

TEST(Frame, RejectsOversizedLength)
{
    // Hand-build a header that claims a payload beyond the ceiling.
    FrameDecoder decoder(/*max_payload=*/64);
    auto wire = encodeFrame(MsgType::TuneRequest, 1, bytesOf("x"));
    const uint32_t huge = 65;
    std::memcpy(&wire[12], &huge, sizeof huge);
    decoder.feed(wire.data(), wire.size());
    Frame frame;
    EXPECT_EQ(decoder.next(&frame), FrameDecoder::Result::Malformed);
}

TEST(Frame, MalformedIsSticky)
{
    auto bad = encodeFrame(MsgType::Ping, 1, {});
    bad[0] ^= 0xFF;
    FrameDecoder decoder;
    decoder.feed(bad.data(), bad.size());
    Frame frame;
    EXPECT_EQ(decoder.next(&frame), FrameDecoder::Result::Malformed);

    // A valid frame after the bad bytes must not resynchronize: the
    // stream has lost alignment for good.
    const auto good = encodeFrame(MsgType::Ping, 2, {});
    decoder.feed(good.data(), good.size());
    EXPECT_EQ(decoder.next(&frame), FrameDecoder::Result::Malformed);
}

TEST(Frame, TruncatedPayloadIsNeedMoreNotMalformed)
{
    const auto wire =
        encodeFrame(MsgType::TuneRequest, 3, bytesOf("truncated"));
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size() - 4);
    Frame frame;
    EXPECT_EQ(decoder.next(&frame), FrameDecoder::Result::NeedMore);
    EXPECT_EQ(decoder.buffered(), wire.size() - 4);
}

TEST(Frame, KnownMsgTypes)
{
    EXPECT_TRUE(isKnownMsgType(1));
    EXPECT_TRUE(isKnownMsgType(5));
    // v2 observability frames.
    EXPECT_TRUE(isKnownMsgType(6));
    EXPECT_TRUE(isKnownMsgType(7));
    EXPECT_TRUE(isKnownMsgType(8));
    EXPECT_TRUE(isKnownMsgType(9));
    // Snapshot admin frames.
    EXPECT_TRUE(isKnownMsgType(10));
    EXPECT_TRUE(isKnownMsgType(11));
    EXPECT_FALSE(isKnownMsgType(0));
    EXPECT_FALSE(isKnownMsgType(12));
    EXPECT_FALSE(isKnownMsgType(0xEE));
}

TEST(Frame, VersionRoundTripsOnDecodedFrames)
{
    // A v1-framed message decodes as version 1, a v2 one as version 2
    // — the dispatch layer answers with the version each request
    // arrived in.
    for (const uint8_t version :
         {kMinProtocolVersion, kProtocolVersion}) {
        const auto wire = encodeFrame(MsgType::Ping, 5, {}, version);
        EXPECT_EQ(wire[4], version);
        FrameDecoder decoder;
        decoder.feed(wire.data(), wire.size());
        Frame frame;
        ASSERT_EQ(decoder.next(&frame), FrameDecoder::Result::Frame);
        EXPECT_EQ(frame.version, version);
    }
}

TEST(Frame, StatsFramesReassembleAtEverySplitPoint)
{
    // The new observability frames ride the same reassembly machinery
    // as tune traffic: a Stats request, its reply, and a FlightDump
    // round trip must survive any packet boundary.
    std::vector<uint8_t> wire;
    const auto statsPayload =
        encodeStatsRequest(StatsRequest{StatsFormat::Prometheus});
    appendFrame(wire, MsgType::Stats, 31, statsPayload.data(),
                statsPayload.size());
    const auto reply = encodeTextReply("dac_up 1\n");
    appendFrame(wire, MsgType::StatsReply, 31, reply.data(),
                reply.size());
    const auto dumpPayload =
        encodeFlightDumpRequest(FlightDumpRequest{2.5});
    appendFrame(wire, MsgType::FlightDump, 32, dumpPayload.data(),
                dumpPayload.size());

    for (size_t split = 0; split <= wire.size(); ++split) {
        FrameDecoder decoder;
        decoder.feed(wire.data(), split);
        std::vector<Frame> got;
        Frame frame;
        while (decoder.next(&frame) == FrameDecoder::Result::Frame)
            got.push_back(frame);
        decoder.feed(wire.data() + split, wire.size() - split);
        while (decoder.next(&frame) == FrameDecoder::Result::Frame)
            got.push_back(frame);

        ASSERT_EQ(got.size(), 3u) << "split at " << split;
        EXPECT_EQ(got[0].type, MsgType::Stats);
        EXPECT_EQ(decodeStatsRequest(got[0].payload).format,
                  StatsFormat::Prometheus);
        EXPECT_EQ(got[1].type, MsgType::StatsReply);
        EXPECT_EQ(decodeTextReply(got[1].payload), "dac_up 1\n");
        EXPECT_EQ(got[2].type, MsgType::FlightDump);
        EXPECT_EQ(decodeFlightDumpRequest(got[2].payload).windowSec,
                  2.5);
    }
}

TEST(Protocol, TuneRequestRoundTrips)
{
    service::TuneRequest request;
    request.workload = "TS";
    request.nativeSize = 43.75;
    request.seed = 0xDEADBEEFCAFEBABEULL;
    request.deadlineSec = 2.5;

    const auto decoded = decodeTuneRequest(encodeTuneRequest(request));
    EXPECT_EQ(decoded.workload, "TS");
    EXPECT_EQ(decoded.nativeSize, 43.75);
    EXPECT_EQ(decoded.seed, request.seed);
    EXPECT_EQ(decoded.deadlineSec, 2.5);
}

TEST(Protocol, TuneResponseRoundTripsBitIdentical)
{
    const auto &space = conf::ConfigSpace::spark();
    service::TuneResponse response;
    response.workload = "KM";
    response.nativeSize = 200.0;
    response.best = conf::Configuration(space);
    response.predictedTimeSec = 123.456789;
    response.modelErrorPct = 7.25;
    response.modelCacheHit = true;
    response.coalesced = true;
    response.latencySec = 0.0625;
    response.degraded = true;
    response.degradedReason = "search-truncated";
    response.buildRetries = 3;
    response.warnings.push_back(
        {"executor-memory-fit", "executors overflow node RAM"});
    response.warnings.push_back({"offheap-consistency", "size is zero"});

    const auto decoded =
        decodeTuneResponse(encodeTuneResponse(response), space);
    EXPECT_EQ(decoded.workload, "KM");
    EXPECT_EQ(decoded.nativeSize, 200.0);
    EXPECT_EQ(decoded.best.values(), response.best.values());
    EXPECT_EQ(decoded.predictedTimeSec, 123.456789);
    EXPECT_EQ(decoded.modelErrorPct, 7.25);
    EXPECT_TRUE(decoded.modelCacheHit);
    EXPECT_TRUE(decoded.coalesced);
    EXPECT_EQ(decoded.latencySec, 0.0625);
    EXPECT_TRUE(decoded.degraded);
    EXPECT_EQ(decoded.degradedReason, "search-truncated");
    EXPECT_EQ(decoded.buildRetries, 3);
    ASSERT_EQ(decoded.warnings.size(), 2u);
    EXPECT_EQ(decoded.warnings[0].constraint, "executor-memory-fit");
    EXPECT_EQ(decoded.warnings[0].message,
              "executors overflow node RAM");
    EXPECT_EQ(decoded.warnings[1].constraint, "offheap-consistency");
}

TEST(Protocol, V2RequestCarriesTraceContext)
{
    service::TuneRequest request;
    request.workload = "TS";
    request.nativeSize = 40.0;
    request.traceId = 0xFEEDFACE12345678ULL;
    request.sampled = false;

    const auto payload = encodeTuneRequest(request, 2);
    const auto decoded = decodeTuneRequest(payload, 2);
    EXPECT_EQ(decoded.traceId, request.traceId);
    EXPECT_FALSE(decoded.sampled);

    request.sampled = true;
    const auto sampledBack =
        decodeTuneRequest(encodeTuneRequest(request, 2), 2);
    EXPECT_TRUE(sampledBack.sampled);
}

TEST(Protocol, V1RequestEncodingDropsTraceContext)
{
    // A v1 payload must stay bit-identical to what a v1 peer sent or
    // expects: no trace id, no flags byte.
    service::TuneRequest bare;
    bare.workload = "TS";
    bare.nativeSize = 40.0;
    service::TuneRequest traced = bare;
    traced.traceId = 77;
    traced.sampled = false;
    EXPECT_EQ(encodeTuneRequest(traced, 1), encodeTuneRequest(bare, 1));

    const auto decoded =
        decodeTuneRequest(encodeTuneRequest(traced, 1), 1);
    EXPECT_EQ(decoded.traceId, 0u);
    EXPECT_TRUE(decoded.sampled); // v1 peers are always sampled
}

TEST(Protocol, V2RequestRejectsUnknownFlagBits)
{
    service::TuneRequest request;
    request.workload = "TS";
    request.nativeSize = 40.0;
    auto payload = encodeTuneRequest(request, 2);
    payload[payload.size() - 1] |= 0x80; // a flag this build ignores
    EXPECT_THROW((void)decodeTuneRequest(payload, 2), ProtocolError);
}

TEST(Protocol, V2ResponseCarriesPhaseBreakdown)
{
    const auto &space = conf::ConfigSpace::spark();
    service::TuneResponse response;
    response.workload = "TS";
    response.best = conf::Configuration(space);
    response.phases.push_back({service::Phase::Decode, 1e-5});
    response.phases.push_back({service::Phase::Queue, 2e-4});
    response.phases.push_back({service::Phase::Search, 0.125});

    const auto decoded =
        decodeTuneResponse(encodeTuneResponse(response, 2), space, 2);
    ASSERT_EQ(decoded.phases.size(), 3u);
    EXPECT_EQ(decoded.phaseSec(service::Phase::Decode), 1e-5);
    EXPECT_EQ(decoded.phaseSec(service::Phase::Queue), 2e-4);
    EXPECT_EQ(decoded.phaseSec(service::Phase::Search), 0.125);
    // Phases never reported read as zero, not garbage.
    EXPECT_EQ(decoded.phaseSec(service::Phase::ModelBuild), 0.0);

    // A v1 encoding of the same response drops the breakdown and is
    // identical to one that never had it.
    service::TuneResponse bare = response;
    bare.phases.clear();
    EXPECT_EQ(encodeTuneResponse(response, 1), encodeTuneResponse(bare, 1));
}

TEST(Protocol, PatchSerializePhaseRewritesPlaceholder)
{
    const auto &space = conf::ConfigSpace::spark();
    service::TuneResponse response;
    response.workload = "TS";
    response.best = conf::Configuration(space);
    response.phases.push_back({service::Phase::Search, 0.25});
    // The serialize entry must be last: its f64 is the payload tail.
    response.phases.push_back({service::Phase::Serialize, 0.0});

    auto payload = encodeTuneResponse(response, 2);
    patchSerializePhaseSec(payload, 0.0625);
    const auto decoded = decodeTuneResponse(payload, space, 2);
    EXPECT_EQ(decoded.phaseSec(service::Phase::Serialize), 0.0625);
    EXPECT_EQ(decoded.phaseSec(service::Phase::Search), 0.25);

    // Without a trailing serialize entry the patch must refuse.
    service::TuneResponse noSlot = response;
    noSlot.phases.pop_back();
    auto unpatchable = encodeTuneResponse(noSlot, 2);
    EXPECT_THROW(patchSerializePhaseSec(unpatchable, 0.5),
                 ProtocolError);
}

TEST(Protocol, StatsAndFlightDumpCodecsValidate)
{
    EXPECT_EQ(decodeStatsRequest(
                  encodeStatsRequest(StatsRequest{StatsFormat::Json}))
                  .format,
              StatsFormat::Json);
    std::vector<uint8_t> bad = {0x07};
    EXPECT_THROW((void)decodeStatsRequest(bad), ProtocolError);

    EXPECT_EQ(decodeFlightDumpRequest(
                  encodeFlightDumpRequest(FlightDumpRequest{12.0}))
                  .windowSec,
              12.0);
    FlightDumpRequest negative;
    negative.windowSec = -1.0;
    EXPECT_THROW((void)decodeFlightDumpRequest(
                     encodeFlightDumpRequest(negative)),
                 ProtocolError);

    EXPECT_EQ(decodeTextReply(encodeTextReply("{\"a\":1}")),
              "{\"a\":1}");
}

TEST(Protocol, ErrorRoundTrips)
{
    EXPECT_EQ(decodeError(encodeError("boom: no such workload")),
              "boom: no such workload");
}

TEST(Protocol, TruncatedPayloadThrows)
{
    service::TuneRequest request;
    request.workload = "WC";
    request.nativeSize = 80.0;
    auto payload = encodeTuneRequest(request);
    payload.resize(payload.size() - 3);
    EXPECT_THROW((void)decodeTuneRequest(payload), ProtocolError);
}

TEST(Protocol, TrailingBytesThrow)
{
    service::TuneRequest request;
    request.workload = "WC";
    request.nativeSize = 80.0;
    auto payload = encodeTuneRequest(request);
    payload.push_back(0);
    EXPECT_THROW((void)decodeTuneRequest(payload), ProtocolError);
}

TEST(Protocol, ResponseValueCountMustMatchSpace)
{
    const auto &space = conf::ConfigSpace::spark();
    service::TuneResponse response;
    response.workload = "TS";
    response.best = conf::Configuration(space);
    auto payload = encodeTuneResponse(response);

    // A receiver speaking a different (here: corrupted-count) space
    // must refuse rather than misalign the remaining fields.
    service::TuneResponse copy = response;
    auto bad = encodeTuneResponse(copy);
    // The value count lives after workload (u32 len + bytes) and
    // nativeSize (8 bytes); flip its low byte.
    const size_t countAt = 4 + response.workload.size() + 8;
    bad[countAt] ^= 0x01;
    EXPECT_THROW((void)decodeTuneResponse(bad, space), ProtocolError);

    // Unmodified payload still decodes.
    EXPECT_NO_THROW((void)decodeTuneResponse(payload, space));
}

TEST(Protocol, ReaderBoundsChecks)
{
    ByteWriter writer;
    writer.u32(7);
    const auto bytes = writer.take();
    ByteReader<ProtocolError> reader(bytes.data(), bytes.size());
    EXPECT_EQ(reader.u32(), 7u);
    EXPECT_THROW((void)reader.u8(), ProtocolError);

    ByteReader<ProtocolError> fresh(bytes.data(), bytes.size());
    EXPECT_THROW(fresh.expectEnd(), ProtocolError);
}

TEST(Protocol, ImpossibleWarningCountIsProtocolError)
{
    const auto &space = conf::ConfigSpace::spark();
    service::TuneResponse response;
    response.workload = "TS";
    response.best = conf::Configuration(space);
    // A v1 response without warnings ends with its u32 warning count.
    auto payload = encodeTuneResponse(response, 1);
    for (size_t i = payload.size() - 4; i < payload.size(); ++i)
        payload[i] = 0xff;
    // 2^32 - 1 warnings cannot fit in the bytes left: refused before
    // anything is sized from the count.
    EXPECT_THROW((void)decodeTuneResponse(payload, space, 1),
                 ProtocolError);
}

} // namespace
} // namespace dac::net
