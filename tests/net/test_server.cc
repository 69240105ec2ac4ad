/**
 * @file
 * Tests for the wire server: echo traffic over a stub backend (both
 * readiness backends), wire-level batching, malformed-stream teardown,
 * per-frame error replies, concurrent connections, the reply path
 * (backend faults, a throwing backend, stop() with a request in
 * flight), and byte-identity of wire answers against the in-process
 * TuningService.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "service/service.h"
#include "sparksim/simulator.h"

namespace dac::net {
namespace {

/** The backend doubles' answer: predictedTimeSec = 2 * nativeSize,
 *  plus one typed warning. */
service::TuneResponse
stubAnswer(const service::TuneRequest &request)
{
    service::TuneResponse response;
    response.workload = request.workload;
    response.nativeSize = request.nativeSize;
    response.predictedTimeSec = request.nativeSize * 2.0;
    response.warnings.push_back({"stub-rule", "stub finding"});
    return response;
}

/**
 * Backend double: answers instantly, on the submitting thread, with
 * stubAnswer() and records the batch sizes the server actually
 * submitted.
 */
class StubBackend final : public service::TuningBackend
{
  public:
    void
    submitBatch(std::vector<service::TuneJob> batch) override
    {
        recordBatch(batch.size());
        for (service::TuneJob &job : batch)
            job.reply(stubAnswer(job.request), nullptr);
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
    void
    recordBatch(size_t n)
    {
        std::lock_guard<std::mutex> lock(mutex);
        sizes.push_back(n);
    }

    std::mutex mutex;
    std::vector<size_t> sizes;
};

/**
 * Backend double that keeps every request for workload "HOLD"
 * unanswered until releaseHeld() and answers the rest at once; every
 * answer is stubAnswer().
 */
class HoldingBackend final : public service::TuningBackend
{
  public:
    void
    submitBatch(std::vector<service::TuneJob> batch) override
    {
        for (service::TuneJob &job : batch) {
            if (job.request.workload != "HOLD") {
                job.reply(stubAnswer(job.request), nullptr);
                continue;
            }
            std::lock_guard<std::mutex> lock(mutex);
            held.push_back(std::move(job));
            heldChanged.notify_all();
        }
    }

    /** Wait (up to 10 s) until `n` requests are held. */
    [[nodiscard]] bool
    awaitHeld(size_t n)
    {
        std::unique_lock<std::mutex> lock(mutex);
        return heldChanged.wait_for(lock, std::chrono::seconds(10),
                                    [&] { return held.size() >= n; });
    }

    /** Answer every held request, on the calling thread. */
    void
    releaseHeld()
    {
        std::vector<service::TuneJob> jobs;
        {
            std::lock_guard<std::mutex> lock(mutex);
            jobs.swap(held);
        }
        for (service::TuneJob &job : jobs)
            job.reply(stubAnswer(job.request), nullptr);
    }

  private:
    std::mutex mutex;
    std::condition_variable heldChanged;
    std::vector<service::TuneJob> held;
};

/** Backend double whose submitBatch always throws. */
class ThrowingBackend final : public service::TuningBackend
{
  public:
    void
    submitBatch(std::vector<service::TuneJob> /*batch*/) override
    {
        throw std::runtime_error("backend unavailable");
    }
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

/**
 * Each batch item's reply leaves in its own send, and that send is its
 * write phase: each request gets its own phase.write observation and
 * its own write flight record, as it does for serialize.
 */
TEST(TuningServer, EveryBatchItemRecordsItsWritePhase)
{
    StubBackend backend;
    obs::MetricsRegistry metrics;
    ServerOptions options;
    options.metrics = &metrics;
    TuningServer server(backend, options);
    server.start();

    // The client numbers its frames 1..kItems; count only the records
    // this batch adds.
    constexpr uint32_t kItems = 5;
    const auto writeRecords = [] {
        std::vector<size_t> perId(kItems + 1, 0);
        for (const obs::FlightRecord &record :
             obs::FlightRecorder::instance().snapshot(600.0)) {
            if (record.phase == obs::FlightPhase::Write &&
                record.requestId >= 1 && record.requestId <= kItems)
                ++perId[record.requestId];
        }
        return perId;
    };
    const auto before = writeRecords();

    Client client("127.0.0.1", server.port());
    std::vector<service::TuneRequest> requests;
    for (uint32_t i = 0; i < kItems; ++i)
        requests.push_back(makeRequest("TS", 10.0 + i));
    ASSERT_EQ(client.requestBatch(requests).size(), kItems);
    client.close();
    // The loop records a write after its send returns; stopping joins
    // the loop, so every record is in by now.
    server.stop();

    EXPECT_EQ(metrics.histogram("phase.serialize").count(), kItems);
    EXPECT_EQ(metrics.histogram("phase.write").count(), kItems);
    const auto after = writeRecords();
    for (uint32_t id = 1; id <= kItems; ++id)
        EXPECT_EQ(after[id] - before[id], 1u) << "wire id " << id;
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
 * stop() waits for the requests already handed to the backend: one
 * still in flight keeps it waiting and is answered before the loops
 * stop, while a request arriving after stop() began is answered
 * "server stopping" at once.
 */
TEST(TuningServer, StopAnswersInFlightRequestsAndRefusesLaterOnes)
{
    HoldingBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Client first("127.0.0.1", server.port());
    auto firstAnswer = std::async(std::launch::async, [&first] {
        return first.request(makeRequest("HOLD", 40.0));
    });
    ASSERT_TRUE(backend.awaitHeld(1));
    Client later("127.0.0.1", server.port());
    later.ping(); // adopted before stop() drops the listener

    std::atomic<bool> stopReturned{false};
    std::thread stopper([&] {
        server.stop();
        stopReturned.store(true);
    });
    // Until stop() begins, the backend answers these at once.
    std::string refusal;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (refusal.empty() && std::chrono::steady_clock::now() < deadline) {
        try {
            (void)later.request(makeRequest("TS", 5.0));
        } catch (const RpcError &e) {
            refusal = e.what();
        }
    }
    EXPECT_EQ(refusal, "server stopping");
    EXPECT_EQ(server.stats().repliesDegraded, 1u);
    EXPECT_FALSE(stopReturned.load()) << "stop() left a request behind";

    backend.releaseHeld();
    stopper.join();
    const service::TuneResponse answer = firstAnswer.get();
    EXPECT_EQ(answer.workload, "HOLD");
    EXPECT_EQ(answer.predictedTimeSec, 80.0);
    EXPECT_EQ(server.stats().repliesDegraded, 1u);
}

/**
 * A backend that throws from submitBatch answers none of the batch:
 * the server closes that connection instead of leaving its request
 * waiting, keeps serving others, and stop() does not wait for the
 * request it released.
 */
TEST(TuningServer, ThrowingBackendClosesTheConnectionAndStopReturns)
{
    ThrowingBackend backend;
    TuningServer server(backend, ServerOptions{});
    server.start();

    Client client("127.0.0.1", server.port());
    EXPECT_THROW((void)client.request(makeRequest("TS", 40.0)), RpcError);
    Client other("127.0.0.1", server.port());
    other.ping();
    server.stop();
    EXPECT_EQ(server.stats().requestsSubmitted, 1u);
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

/** Tiny tuning budget for tests that run the real pipeline. */
service::ServiceOptions
tinyServiceOptions()
{
    service::ServiceOptions options;
    options.threads = 2;
    options.tuning.collect.datasetCount = 4;
    options.tuning.collect.runsPerDataset = 12;
    options.tuning.hm.firstOrder.maxTrees = 30;
    options.tuning.ga.maxGenerations = 8;
    return options;
}

/** One tune request over a fresh raw connection under wire id `id`. */
service::TuneResponse
tuneOver(uint16_t port, uint32_t id, const service::TuneRequest &request)
{
    Socket raw = connectTcp("127.0.0.1", port);
    const auto frame =
        encodeFrame(MsgType::TuneRequest, id, encodeTuneRequest(request));
    EXPECT_TRUE(writeAll(raw.fd(), frame.data(), frame.size()));
    FrameDecoder decoder;
    const Frame reply = readFrame(raw, decoder);
    EXPECT_EQ(reply.type, MsgType::TuneResponse);
    EXPECT_EQ(reply.requestId, id);
    return decodeTuneResponse(reply.payload, conf::ConfigSpace::spark(),
                              reply.version);
}

std::vector<service::Phase>
phaseKinds(const service::TuneResponse &response)
{
    std::vector<service::Phase> kinds;
    for (const auto &timing : response.phases)
        kinds.push_back(timing.phase);
    return kinds;
}

/** Phase counts of the phase.* histograms, indexed by Phase. */
std::vector<uint64_t>
phaseCounts(obs::MetricsRegistry &metrics)
{
    std::vector<uint64_t> counts;
    for (size_t i = 0; i < service::kPhaseCount; ++i) {
        counts.push_back(
            metrics
                .histogram(std::string("phase.") +
                           service::phaseName(static_cast<service::Phase>(i)))
                .count());
    }
    return counts;
}

/**
 * A request the backend fails (an unknown workload) comes back as an
 * Error frame naming the fault and counts one RED error on its loop;
 * the connection goes on serving.
 */
TEST(TuningServer, BackendFaultIsAnErrorFrameAndKeepsTheConnection)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    service::TuningService service(sim, tinyServiceOptions());
    ServerOptions options;
    options.metrics = &service.metrics();
    TuningServer server(service, options);
    server.start();

    Client client("127.0.0.1", server.port());
    std::string fault;
    try {
        (void)client.request(makeRequest("XX", 40.0));
    } catch (const RpcError &e) {
        fault = e.what();
    }
    EXPECT_NE(fault.find("unknown workload: XX"), std::string::npos)
        << "fault: '" << fault << "'";
    const auto answer = client.request(makeRequest("TS", 40.0));
    EXPECT_EQ(answer.workload, "TS");
    EXPECT_FALSE(answer.degraded);
    client.close();
    server.stop();

    uint64_t errors = 0;
    uint64_t requests = 0;
    for (const char *loop : {"net.loop0", "net.loop1"}) {
        errors += service.metrics().counterValue(std::string(loop) +
                                                 ".errors");
        requests += service.metrics().counterValue(std::string(loop) +
                                                   ".requests");
    }
    EXPECT_EQ(errors, 1u);
    EXPECT_EQ(requests, 2u);
    EXPECT_EQ(server.stats().protocolErrors, 0u);
}

const std::vector<service::Phase> kWarmPhases = {
    service::Phase::Decode, service::Phase::Queue,
    service::Phase::CacheLookup, service::Phase::Search,
    service::Phase::Serialize};

/**
 * A settled phase lands in three records: the response's phase list,
 * its phase.* histogram and its flight record. They must agree.
 */
TEST(TuningServer, PhasesAgreeAcrossResponseHistogramsAndFlightRecords)
{
    using service::Phase;
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    service::TuningService service(sim, tinyServiceOptions());
    ServerOptions options;
    options.metrics = &service.metrics();
    TuningServer server(service, options);
    server.start();

    // Wire ids no other test in this binary uses, so the flight
    // records are this test's alone.
    constexpr uint32_t kColdId = 0x51A5E001;
    constexpr uint32_t kWarmId = 0x51A5E002;
    const service::TuneRequest request = makeRequest("TS", 40.0);
    const auto before = phaseCounts(service.metrics());
    const auto cold = tuneOver(server.port(), kColdId, request);
    const auto afterCold = phaseCounts(service.metrics());
    const auto warm = tuneOver(server.port(), kWarmId, request);
    const auto afterWarm = phaseCounts(service.metrics());
    server.stop();

    EXPECT_EQ(phaseKinds(cold),
              (std::vector<Phase>{Phase::Decode, Phase::Queue,
                                  Phase::CacheLookup, Phase::ModelBuild,
                                  Phase::Search, Phase::Serialize}));
    EXPECT_EQ(phaseKinds(warm), kWarmPhases);

    // One observation per request that reached the phase.
    for (size_t i = 0; i < service::kPhaseCount; ++i) {
        const auto phase = static_cast<Phase>(i);
        EXPECT_EQ(afterCold[i] - before[i], 1u) << service::phaseName(phase);
        EXPECT_EQ(afterWarm[i] - afterCold[i],
                  phase == Phase::ModelBuild ? 0u : 1u)
            << service::phaseName(phase);
    }

    // The checkpoint each phase's flight record is taken at.
    const obs::FlightPhase settledAt[service::kPhaseCount] = {
        obs::FlightPhase::Decode,      obs::FlightPhase::QueueExit,
        obs::FlightPhase::CacheLookup, obs::FlightPhase::ModelBuild,
        obs::FlightPhase::Search,      obs::FlightPhase::Serialize};
    const auto records = obs::FlightRecorder::instance().snapshot(600.0);
    const auto checkFlight = [&](uint32_t id,
                                 const service::TuneResponse &response) {
        for (const auto &timing : response.phases) {
            size_t seen = 0;
            for (const obs::FlightRecord &record : records) {
                if (record.requestId != id ||
                    record.phase !=
                        settledAt[static_cast<size_t>(timing.phase)])
                    continue;
                ++seen;
                EXPECT_EQ(std::bit_cast<uint64_t>(record.valueSec),
                          std::bit_cast<uint64_t>(timing.sec))
                    << service::phaseName(timing.phase);
            }
            EXPECT_EQ(seen, 1u) << service::phaseName(timing.phase);
        }
    };
    checkFlight(kColdId, cold);
    checkFlight(kWarmId, warm);
}

/**
 * The phase list belongs to the answer, not to the observability: a
 * server without metrics, with the flight recorder off, reports the
 * same phases.
 */
TEST(TuningServer, PhasesDoNotDependOnObservability)
{
    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    service::TuningService service(sim, tinyServiceOptions());
    ServerOptions observedOptions;
    observedOptions.metrics = &service.metrics();
    TuningServer observed(service, observedOptions);
    TuningServer bare(service, ServerOptions{});
    observed.start();
    bare.start();

    const service::TuneRequest request = makeRequest("TS", 40.0);
    ASSERT_FALSE(service.submit(request).get().degraded); // warm the key
    const auto withObs = tuneOver(observed.port(), 0x51A5E003, request);
    obs::FlightRecorder::instance().setEnabled(false);
    const auto withoutObs = tuneOver(bare.port(), 0x51A5E004, request);
    obs::FlightRecorder::instance().setEnabled(true);
    observed.stop();
    bare.stop();

    EXPECT_EQ(phaseKinds(withObs), kWarmPhases);
    EXPECT_EQ(phaseKinds(withoutObs), kWarmPhases);
}

} // namespace
} // namespace dac::net
