/**
 * @file
 * Tests for the wire server: echo traffic over a stub backend (both
 * readiness backends), wire-level batching, malformed-stream teardown,
 * per-frame error replies, concurrent connections, and byte-identity
 * of wire answers against the in-process TuningService.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "service/service.h"
#include "sparksim/simulator.h"

namespace dac::net {
namespace {

/**
 * Backend double: answers instantly with a response derived from the
 * request (predictedTimeSec = 2 * nativeSize) and records the batch
 * sizes the server actually submitted.
 */
class StubBackend final : public service::TuningBackend
{
  public:
    std::future<service::TuneResponse>
    submit(service::TuneRequest request) override
    {
        recordBatch(1);
        std::promise<service::TuneResponse> promise;
        promise.set_value(answer(request));
        return promise.get_future();
    }

    std::vector<std::future<service::TuneResponse>>
    submitBatch(std::vector<service::TuneRequest> batch) override
    {
        recordBatch(batch.size());
        std::vector<std::future<service::TuneResponse>> futures;
        futures.reserve(batch.size());
        for (const auto &request : batch) {
            std::promise<service::TuneResponse> promise;
            promise.set_value(answer(request));
            futures.push_back(promise.get_future());
        }
        return futures;
    }

    std::vector<size_t>
    batchSizes()
    {
        std::lock_guard<std::mutex> lock(mutex);
        return sizes;
    }

    size_t
    maxBatch()
    {
        std::lock_guard<std::mutex> lock(mutex);
        size_t best = 0;
        for (const size_t s : sizes)
            best = std::max(best, s);
        return best;
    }

  private:
    static service::TuneResponse
    answer(const service::TuneRequest &request)
    {
        service::TuneResponse response;
        response.workload = request.workload;
        response.nativeSize = request.nativeSize;
        response.predictedTimeSec = request.nativeSize * 2.0;
        response.warnings.push_back({"stub-rule", "stub finding"});
        return response;
    }

    void
    recordBatch(size_t n)
    {
        std::lock_guard<std::mutex> lock(mutex);
        sizes.push_back(n);
    }

    std::mutex mutex;
    std::vector<size_t> sizes;
};

service::TuneRequest
makeRequest(const std::string &workload, double size)
{
    service::TuneRequest request;
    request.workload = workload;
    request.nativeSize = size;
    return request;
}

TEST(TuningServer, EchoesOverTheWire)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Client client("127.0.0.1", server.port());
    client.ping();
    const auto response = client.request(makeRequest("TS", 40.0));
    EXPECT_EQ(response.workload, "TS");
    EXPECT_EQ(response.nativeSize, 40.0);
    EXPECT_EQ(response.predictedTimeSec, 80.0);
    // Typed warnings crossed the wire, not stderr.
    ASSERT_EQ(response.warnings.size(), 1u);
    EXPECT_EQ(response.warnings[0].constraint, "stub-rule");

    client.close();
    server.stop();
    const auto stats = server.stats();
    EXPECT_EQ(stats.connectionsAccepted, 1u);
    EXPECT_EQ(stats.requestsSubmitted, 1u);
    EXPECT_EQ(stats.protocolErrors, 0u);
}

TEST(TuningServer, PipelinedFramesFormOneBatch)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Client client("127.0.0.1", server.port());
    // One coalesced write of 6 frames lands in the server's receive
    // buffer together; the readiness cycle drains them as one batch.
    // Scheduling could in principle split the read, so allow retries
    // before asserting.
    size_t observedMax = 0;
    for (int attempt = 0; attempt < 5 && observedMax < 2; ++attempt) {
        std::vector<service::TuneRequest> requests;
        for (int i = 0; i < 6; ++i)
            requests.push_back(makeRequest("TS", 10.0 + i));
        const auto responses = client.requestBatch(requests);
        ASSERT_EQ(responses.size(), 6u);
        for (int i = 0; i < 6; ++i) {
            EXPECT_EQ(responses[i].nativeSize, 10.0 + i);
            EXPECT_EQ(responses[i].predictedTimeSec, 2.0 * (10.0 + i));
        }
        observedMax = backend.maxBatch();
    }
    EXPECT_GE(observedMax, 2u)
        << "pipelined frames never reached the backend as a batch";
    EXPECT_GE(server.stats().maxBatch, observedMax);

    client.close();
    server.stop();
}

TEST(TuningServer, ConcurrentConnections)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    // More connections than event loops: pinning must spread them and
    // every closed-loop client must see only its own answers.
    constexpr int kClients = 6;
    constexpr int kRequestsEach = 8;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c]() {
            try {
                Client client("127.0.0.1", server.port());
                for (int i = 0; i < kRequestsEach; ++i) {
                    const double size = 100.0 * c + i;
                    const auto response =
                        client.request(makeRequest("KM", size));
                    if (response.nativeSize != size ||
                        response.predictedTimeSec != 2.0 * size)
                        failures.fetch_add(1,
                                           std::memory_order_relaxed);
                }
            } catch (const std::exception &) {
                failures.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(failures.load(std::memory_order_relaxed), 0);

    server.stop();
    const auto stats = server.stats();
    EXPECT_EQ(stats.connectionsAccepted,
              static_cast<uint64_t>(kClients));
    EXPECT_EQ(stats.requestsSubmitted,
              static_cast<uint64_t>(kClients * kRequestsEach));
}

TEST(TuningServer, MalformedFrameClosesConnectionOnly)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    // Raw garbage: not a frame header at all.
    {
        Socket raw = connectTcp("127.0.0.1", server.port());
        const uint8_t junk[] = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02,
                                0x03, 0x04, 0x05, 0x06, 0x07, 0x08,
                                0x09, 0x0a, 0x0b, 0x0c};
        ASSERT_TRUE(writeAll(raw.fd(), junk, sizeof junk));
        // The server must close on us (EOF), not hang or crash.
        uint8_t buf[64];
        const long got = readWithTimeout(raw.fd(), buf, sizeof buf, 5.0);
        EXPECT_EQ(got, 0) << "expected EOF after malformed frame";
    }

    // The server survives and keeps serving fresh connections.
    Client client("127.0.0.1", server.port());
    const auto response = client.request(makeRequest("PR", 3.0));
    EXPECT_EQ(response.predictedTimeSec, 6.0);
    client.close();

    server.stop();
    EXPECT_GE(server.stats().protocolErrors, 1u);
}

TEST(TuningServer, UndecodablePayloadGetsErrorFrame)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    // Well-framed, but the payload is not a TuneRequest: the server
    // answers with an Error frame and keeps the connection open.
    Socket raw = connectTcp("127.0.0.1", server.port());
    const std::vector<uint8_t> garbage = {1, 2, 3};
    const auto frame =
        encodeFrame(MsgType::TuneRequest, 77, garbage);
    ASSERT_TRUE(writeAll(raw.fd(), frame.data(), frame.size()));

    FrameDecoder decoder;
    Frame reply;
    for (;;) {
        uint8_t buf[512];
        const long got = readWithTimeout(raw.fd(), buf, sizeof buf, 5.0);
        ASSERT_GT(got, 0) << "connection died instead of replying";
        decoder.feed(buf, static_cast<size_t>(got));
        const auto result = decoder.next(&reply);
        ASSERT_NE(result, FrameDecoder::Result::Malformed);
        if (result == FrameDecoder::Result::Frame)
            break;
    }
    EXPECT_EQ(reply.type, MsgType::Error);
    EXPECT_EQ(reply.requestId, 77u);
    EXPECT_FALSE(decodeError(reply.payload).empty());

    // Same connection still serves valid requests afterwards.
    const auto request = makeRequest("TS", 5.0);
    const auto good =
        encodeFrame(MsgType::TuneRequest, 78,
                    encodeTuneRequest(request));
    ASSERT_TRUE(writeAll(raw.fd(), good.data(), good.size()));
    for (;;) {
        uint8_t buf[4096];
        const long got = readWithTimeout(raw.fd(), buf, sizeof buf, 5.0);
        ASSERT_GT(got, 0);
        decoder.feed(buf, static_cast<size_t>(got));
        const auto result = decoder.next(&reply);
        ASSERT_NE(result, FrameDecoder::Result::Malformed);
        if (result == FrameDecoder::Result::Frame)
            break;
    }
    EXPECT_EQ(reply.type, MsgType::TuneResponse);
    EXPECT_EQ(reply.requestId, 78u);

    server.stop();
    EXPECT_GE(server.stats().protocolErrors, 1u);
}

TEST(TuningServer, StopWithOpenConnectionsIsClean)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();
    Client client("127.0.0.1", server.port());
    client.ping();
    // Stop with the client still connected; must not hang or crash.
    server.stop();
}

/**
 * The tentpole contract: a tuning answer served over the wire is
 * byte-identical to the same question asked in process.
 */
TEST(TuningServer, WireAnswersMatchInProcessBitForBit)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    service::ServiceOptions options;
    options.threads = 2;
    // Tiny budget: identity is what is under test, not model quality.
    options.tuning.collect.datasetCount = 4;
    options.tuning.collect.runsPerDataset = 12;
    options.tuning.hm.firstOrder.maxTrees = 30;
    options.tuning.ga.maxGenerations = 8;
    service::TuningService service(sim, options);

    TuningServer server(service, ServerOptions{});
    server.start();

    service::TuneRequest request = makeRequest("TS", 40.0);
    request.seed = 99;

    const auto direct = service.submit(request).get();

    Client client("127.0.0.1", server.port());
    const auto wire = client.request(request);
    client.close();
    server.stop();

    EXPECT_EQ(wire.workload, direct.workload);
    EXPECT_EQ(wire.nativeSize, direct.nativeSize);
    // Bit-exact: the config crosses the wire as IEEE-754 bit patterns.
    EXPECT_EQ(wire.best.values(), direct.best.values());
    EXPECT_EQ(wire.predictedTimeSec, direct.predictedTimeSec);
    EXPECT_EQ(wire.modelErrorPct, direct.modelErrorPct);
    EXPECT_EQ(wire.degraded, direct.degraded);
    ASSERT_EQ(wire.warnings.size(), direct.warnings.size());
    for (size_t i = 0; i < wire.warnings.size(); ++i) {
        EXPECT_EQ(wire.warnings[i].constraint,
                  direct.warnings[i].constraint);
        EXPECT_EQ(wire.warnings[i].message, direct.warnings[i].message);
    }
}

/** Raw-socket helper: read frames until one arrives. */
Frame
readFrame(Socket &raw, FrameDecoder &decoder)
{
    Frame reply;
    for (;;) {
        const auto result = decoder.next(&reply);
        EXPECT_NE(result, FrameDecoder::Result::Malformed)
            << decoder.error();
        if (result == FrameDecoder::Result::Frame)
            return reply;
        uint8_t buf[4096];
        const long got = readWithTimeout(raw.fd(), buf, sizeof buf, 5.0);
        EXPECT_GT(got, 0) << "connection died instead of replying";
        if (got <= 0)
            return reply;
        decoder.feed(buf, static_cast<size_t>(got));
    }
}

/**
 * Backward compatibility: a v1 client gets a bit-identical v1 answer
 * — same frame version, no trace fields consumed, no phase breakdown
 * appended.
 */
TEST(TuningServer, V1ClientGetsBitIdenticalV1Reply)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    const service::TuneRequest request = makeRequest("TS", 40.0);
    Socket raw = connectTcp("127.0.0.1", server.port());
    const auto frame = encodeFrame(MsgType::TuneRequest, 9,
                                   encodeTuneRequest(request, 1), 1);
    ASSERT_TRUE(writeAll(raw.fd(), frame.data(), frame.size()));

    FrameDecoder decoder;
    const Frame reply = readFrame(raw, decoder);
    EXPECT_EQ(reply.type, MsgType::TuneResponse);
    EXPECT_EQ(reply.requestId, 9u);
    EXPECT_EQ(reply.version, 1);

    // The payload matches a local v1 encoding of the stub's answer
    // byte for byte: v2 never leaks into a v1 conversation.
    service::TuneResponse expected;
    expected.workload = "TS";
    expected.nativeSize = 40.0;
    expected.predictedTimeSec = 80.0;
    expected.warnings.push_back({"stub-rule", "stub finding"});
    EXPECT_EQ(reply.payload, encodeTuneResponse(expected, 1));

    server.stop();
}

TEST(TuningServer, V2ReplyCarriesPhaseBreakdown)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Client client("127.0.0.1", server.port());
    const auto response = client.request(makeRequest("TS", 40.0));
    client.close();
    server.stop();

    // Even over the stub backend (which reports no phases itself) the
    // server appends its serialize timing to the v2 reply.
    ASSERT_FALSE(response.phases.empty());
    bool sawSerialize = false;
    for (const auto &timing : response.phases) {
        if (timing.phase == service::Phase::Serialize) {
            EXPECT_GE(timing.sec, 0.0);
            sawSerialize = true;
        }
    }
    EXPECT_TRUE(sawSerialize);
}

TEST(TuningServer, UnknownFrameTypeGetsErrorAndKeepsConnection)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Socket raw = connectTcp("127.0.0.1", server.port());
    auto unknown = encodeFrame(MsgType::Ping, 41, {});
    unknown[5] = 0xEE; // a type from the future
    ASSERT_TRUE(writeAll(raw.fd(), unknown.data(), unknown.size()));

    FrameDecoder decoder;
    const Frame reply = readFrame(raw, decoder);
    EXPECT_EQ(reply.type, MsgType::Error);
    EXPECT_EQ(reply.requestId, 41u);
    EXPECT_FALSE(decodeError(reply.payload).empty());

    // Same connection still serves: unknown types are forgivable.
    const auto good = encodeFrame(MsgType::TuneRequest, 42,
                                  encodeTuneRequest(makeRequest("TS", 5.0)));
    ASSERT_TRUE(writeAll(raw.fd(), good.data(), good.size()));
    const Frame answer = readFrame(raw, decoder);
    EXPECT_EQ(answer.type, MsgType::TuneResponse);
    EXPECT_EQ(answer.requestId, 42u);

    server.stop();
}

TEST(TuningServer, StatsFrameServesRegistryInBothFormats)
{
    obs::MetricsRegistry metrics;
    metrics.counter("requests.served").increment(5);
    metrics.histogram("phase.search").observe(0.25);

    StubBackend backend;
    ServerOptions options;
    options.metrics = &metrics;
    TuningServer server(backend, options);
    server.start();

    Client client("127.0.0.1", server.port());
    (void)client.request(makeRequest("TS", 40.0));

    // Prometheus text exposition.
    const std::string prom = client.stats(StatsFormat::Prometheus);
    EXPECT_NE(prom.find("# TYPE dac_requests_served_total counter"),
              std::string::npos);
    EXPECT_NE(prom.find("dac_requests_served_total 5"),
              std::string::npos);
    // The server's own RED metrics landed in the same registry.
    EXPECT_NE(prom.find("dac_net_loop0_requests_total"),
              std::string::npos);

    // JSON snapshot (what dac_top polls).
    const std::string json = client.stats(StatsFormat::Json);
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"requests.served\":5"), std::string::npos);

    client.close();
    server.stop();
}

TEST(TuningServer, StatsProviderOverridesRegistryRendering)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.setStatsProvider([](StatsFormat format) {
        return format == StatsFormat::Prometheus ? "prom-custom\n"
                                                 : "{\"custom\":1}";
    });
    server.start();

    Client client("127.0.0.1", server.port());
    EXPECT_EQ(client.stats(StatsFormat::Prometheus), "prom-custom\n");
    EXPECT_EQ(client.stats(StatsFormat::Json), "{\"custom\":1}");
    client.close();
    server.stop();
}

TEST(TuningServer, StatsWithoutProviderOrRegistryIsAnError)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();
    Client client("127.0.0.1", server.port());
    EXPECT_THROW((void)client.stats(), RpcError);
    // The error did not cost the connection.
    client.ping();
    client.close();
    server.stop();
}

TEST(TuningServer, FlightDumpFrameReturnsParseableWindow)
{
    StubBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Client client("127.0.0.1", server.port());
    (void)client.request(makeRequest("TS", 40.0));

    const std::string dump = client.flightDump(/*window_sec=*/30.0);
    // The decode/serialize/write records of the request just served
    // are in the window (the recorder is always on).
    EXPECT_NE(dump.find("\"records\""), std::string::npos);
    EXPECT_NE(dump.find("\"decode\""), std::string::npos);

    // A negative window is a protocol error, not a crash.
    EXPECT_THROW((void)client.flightDump(-1.0), RpcError);
    client.ping(); // connection survived the refusal

    client.close();
    server.stop();
}

} // namespace
} // namespace dac::net
