#include "net/client.h"

#include <algorithm>

#include "obs/tracer.h"
#include "support/logging.h"

namespace dac::net {

Client::Client(const std::string &host, uint16_t port,
               const conf::ConfigSpace &space, double timeout_sec)
    : socket(connectTcp(host, port)), space(&space),
      timeoutSec(timeout_sec)
{
}

service::TuneResponse
Client::request(const service::TuneRequest &request)
{
    // The span covers the whole round trip; its id travels as the
    // trace id (unless the caller pinned one), so the server's span
    // tree parents under this span. A sampled-out request silences
    // both sides.
    obs::SampleScope sampleScope(request.sampled);
    obs::ScopedSpan span("net.client.request");
    service::TuneRequest wire = request;
    if (span.active()) {
        span.attr("workload", wire.workload);
        if (wire.traceId == 0)
            wire.traceId = span.id();
    }
    const uint32_t id = nextId++;
    const auto payload = encodeTuneRequest(wire);
    const auto frame = encodeFrame(MsgType::TuneRequest, id, payload);
    if (!writeAll(socket.fd(), frame.data(), frame.size()))
        throw RpcError("connection lost while sending request");
    const Frame reply = awaitFrame(id);
    if (reply.type == MsgType::Error)
        throw RpcError(decodeError(reply.payload));
    if (reply.type != MsgType::TuneResponse)
        throw RpcError("unexpected reply frame type");
    return decodeTuneResponse(reply.payload, *space, reply.version);
}

std::vector<service::TuneResponse>
Client::requestBatch(const std::vector<service::TuneRequest> &requests)
{
    // The batch's root span lasts until its last reply; it records
    // when any item is sampled.
    obs::SampleScope batchSample(std::any_of(
        requests.begin(), requests.end(),
        [](const service::TuneRequest &r) { return r.sampled; }));
    obs::ScopedSpan batchSpan("net.client.batch");
    if (batchSpan.active())
        batchSpan.attr("items", static_cast<uint64_t>(requests.size()));

    // One coalesced write: the server's read loop drains all of these
    // in a single readiness cycle and submits them as one batch.
    std::vector<uint8_t> wire;
    std::vector<uint32_t> ids;
    ids.reserve(requests.size());
    for (const auto &request : requests) {
        // Each batch item gets its own span under the batch's — and
        // with it its own trace id — so server-side work for
        // different items never collapses into one trace.
        obs::SampleScope sampleScope(request.sampled);
        obs::ScopedSpan span("net.client.request");
        service::TuneRequest item = request;
        if (span.active()) {
            span.attr("workload", item.workload);
            if (item.traceId == 0)
                item.traceId = span.id();
        }
        const uint32_t id = nextId++;
        ids.push_back(id);
        const auto payload = encodeTuneRequest(item);
        appendFrame(wire, MsgType::TuneRequest, id, payload.data(),
                    payload.size());
    }
    if (!wire.empty() &&
        !writeAll(socket.fd(), wire.data(), wire.size()))
        throw RpcError("connection lost while sending batch");

    std::vector<service::TuneResponse> responses;
    responses.reserve(requests.size());
    for (const uint32_t id : ids) {
        const Frame reply = awaitFrame(id);
        if (reply.type == MsgType::Error)
            throw RpcError(decodeError(reply.payload));
        if (reply.type != MsgType::TuneResponse)
            throw RpcError("unexpected reply frame type");
        responses.push_back(
            decodeTuneResponse(reply.payload, *space, reply.version));
    }
    return responses;
}

std::string
Client::stats(StatsFormat format)
{
    const uint32_t id = nextId++;
    const auto payload = encodeStatsRequest(StatsRequest{format});
    std::vector<uint8_t> frame;
    appendFrame(frame, MsgType::Stats, id, payload.data(),
                payload.size());
    if (!writeAll(socket.fd(), frame.data(), frame.size()))
        throw RpcError("connection lost while sending stats request");
    const Frame reply = awaitFrame(id);
    if (reply.type == MsgType::Error)
        throw RpcError(decodeError(reply.payload));
    if (reply.type != MsgType::StatsReply)
        throw RpcError("unexpected reply frame type");
    return decodeTextReply(reply.payload);
}

std::string
Client::flightDump(double window_sec)
{
    const uint32_t id = nextId++;
    const auto payload =
        encodeFlightDumpRequest(FlightDumpRequest{window_sec});
    std::vector<uint8_t> frame;
    appendFrame(frame, MsgType::FlightDump, id, payload.data(),
                payload.size());
    if (!writeAll(socket.fd(), frame.data(), frame.size()))
        throw RpcError("connection lost while sending dump request");
    const Frame reply = awaitFrame(id);
    if (reply.type == MsgType::Error)
        throw RpcError(decodeError(reply.payload));
    if (reply.type != MsgType::FlightDumpReply)
        throw RpcError("unexpected reply frame type");
    return decodeTextReply(reply.payload);
}

std::string
Client::snapshotAdmin(SnapshotOp op)
{
    const uint32_t id = nextId++;
    const auto payload = encodeSnapshotRequest(SnapshotRequest{op});
    std::vector<uint8_t> frame;
    appendFrame(frame, MsgType::Snapshot, id, payload.data(),
                payload.size());
    if (!writeAll(socket.fd(), frame.data(), frame.size()))
        throw RpcError("connection lost while sending snapshot request");
    const Frame reply = awaitFrame(id);
    if (reply.type == MsgType::Error)
        throw RpcError(decodeError(reply.payload));
    if (reply.type != MsgType::SnapshotReply)
        throw RpcError("unexpected reply frame type");
    return decodeTextReply(reply.payload);
}

void
Client::ping()
{
    const uint32_t id = nextId++;
    std::vector<uint8_t> frame;
    appendFrame(frame, MsgType::Ping, id, nullptr, 0);
    if (!writeAll(socket.fd(), frame.data(), frame.size()))
        throw RpcError("connection lost while sending ping");
    const Frame reply = awaitFrame(id);
    if (reply.type != MsgType::Pong)
        throw RpcError("ping answered by a non-pong frame");
}

void
Client::close()
{
    socket.close();
}

Frame
Client::awaitFrame(uint32_t request_id)
{
    // Pipelined responses may arrive in any order; earlier calls park
    // frames they were not waiting for.
    const auto parkedHit = std::find_if(
        parked.begin(), parked.end(), [request_id](const Frame &f) {
            return f.requestId == request_id;
        });
    if (parkedHit != parked.end()) {
        Frame frame = std::move(*parkedHit);
        parked.erase(parkedHit);
        return frame;
    }

    uint8_t chunk[kReadChunkBytes];
    for (;;) {
        Frame frame;
        const FrameDecoder::Result result = decoder.next(&frame);
        if (result == FrameDecoder::Result::Malformed)
            throw RpcError("malformed reply stream: " + decoder.error());
        if (result == FrameDecoder::Result::Frame) {
            if (frame.requestId == request_id)
                return frame;
            parked.push_back(std::move(frame));
            continue;
        }
        const long n = readWithTimeout(socket.fd(), chunk,
                                       sizeof(chunk), timeoutSec);
        if (n < 0)
            throw RpcError("timed out waiting for a reply");
        if (n == 0)
            throw RpcError("server closed the connection");
        decoder.feed(chunk, static_cast<size_t>(n));
    }
}

} // namespace dac::net
