/**
 * @file
 * Wire-propagated trace context: the client's request span id rides
 * the v2 TuneRequest as its trace id, the server adopts it as the
 * parent of its own span tree, and the merged log exports as ONE
 * stitched Chrome trace. Also: the sampling flag (a sampled-out
 * request records nothing on either side) and per-item trace ids in
 * pipelined batches.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "obs/chrome_trace.h"
#include "obs/tracer.h"
#include "service/service.h"
#include "sparksim/simulator.h"
#include "support/json.h"

namespace dac::net {
namespace {

/** Tiny tuning budget: trace plumbing is under test, not the tuner. */
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

service::TuneRequest
makeRequest(const std::string &workload, double size)
{
    service::TuneRequest request;
    request.workload = workload;
    request.nativeSize = size;
    return request;
}

/** The full stack on loopback, with the model band pre-warmed while
 *  tracing is off so traced requests are cache hits. */
class TraceContextTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::Tracer::instance().setEnabled(false);
        sim = std::make_unique<sparksim::SparkSimulator>(
            cluster::ClusterSpec::paperTestbed());
        service = std::make_unique<service::TuningService>(
            *sim, tinyServiceOptions());
        server = std::make_unique<TuningServer>(*service,
                                                ServerOptions{});
        server->start();
        client = std::make_unique<Client>("127.0.0.1", server->port());
        // Warm every job the tests ask about.
        std::vector<service::TuneRequest> warm;
        warm.push_back(makeRequest("TS", 40.0));
        warm.push_back(makeRequest("WC", 80.0));
        warm.push_back(makeRequest("KM", 200.0));
        (void)client->requestBatch(warm);
        obs::Tracer::instance().setEnabled(true);
        obs::Tracer::instance().clear();
    }

    void
    TearDown() override
    {
        obs::Tracer::instance().setEnabled(false);
        obs::Tracer::instance().clear();
        client->close();
        server->stop();
        service->shutdown();
    }

    std::unique_ptr<sparksim::SparkSimulator> sim;
    std::unique_ptr<service::TuningService> service;
    std::unique_ptr<TuningServer> server;
    std::unique_ptr<Client> client;
};

TEST_F(TraceContextTest, ClientAndServerSpansStitchUnderOneTraceId)
{
    (void)client->request(makeRequest("TS", 40.0));
    obs::Tracer::instance().setEnabled(false);
    const obs::TraceLog log = obs::Tracer::instance().snapshot();

    uint64_t clientSpanId = 0;
    for (const auto &event : log.events) {
        if (event.name == "net.client.request") {
            EXPECT_EQ(clientSpanId, 0u) << "exactly one client span";
            clientSpanId = event.id;
        }
    }
    ASSERT_NE(clientSpanId, 0u);

    // The server-side request span parents directly under the client
    // span: one connected tree, no orphan roots.
    bool stitched = false;
    for (const auto &event : log.events) {
        if (event.name == "request" && event.parent == clientSpanId)
            stitched = true;
    }
    EXPECT_TRUE(stitched)
        << "server request span did not adopt the wire trace id";
}

TEST_F(TraceContextTest, ChromeExportParsesBackAsOneStitchedTrace)
{
    (void)client->request(makeRequest("TS", 40.0));
    obs::Tracer::instance().setEnabled(false);
    const obs::TraceLog log = obs::Tracer::instance().snapshot();

    // Export and parse back: the stitching must survive the Chrome
    // trace_event JSON round trip, not just the in-memory log.
    const JsonValue doc = parseJson(obs::toChromeTraceJson(log));
    ASSERT_TRUE(doc.at("traceEvents").isArray());

    uint64_t clientSpanId = 0;
    for (const auto &event : doc.at("traceEvents").items) {
        if (event.stringAt("name") == "net.client.request")
            clientSpanId = static_cast<uint64_t>(
                event.at("args").numberAt("span_id"));
    }
    ASSERT_NE(clientSpanId, 0u);

    bool stitched = false;
    for (const auto &event : doc.at("traceEvents").items) {
        if (event.stringAt("name") != "request")
            continue;
        const JsonValue &args = event.at("args");
        if (static_cast<uint64_t>(args.numberAt("parent_id")) !=
            clientSpanId)
            continue;
        stitched = true;
        // The span advertises the trace id it adopted.
        EXPECT_EQ(args.stringAt("trace_id"),
                  std::to_string(clientSpanId));
    }
    EXPECT_TRUE(stitched);
}

TEST_F(TraceContextTest, SampledOutRequestRecordsNothing)
{
    const uint64_t before = obs::Tracer::instance().eventCount();
    service::TuneRequest request = makeRequest("TS", 40.0);
    request.sampled = false;
    const auto response = client->request(request);
    EXPECT_EQ(response.workload, "TS"); // served normally...
    // ...but left zero trace events on client AND server side, even
    // with the tracer globally enabled.
    EXPECT_EQ(obs::Tracer::instance().eventCount(), before);
}

TEST_F(TraceContextTest, BatchItemsGetDistinctTraceIds)
{
    // Distinct jobs so coalescing cannot merge them server-side.
    std::vector<service::TuneRequest> batch;
    batch.push_back(makeRequest("TS", 40.0));
    batch.push_back(makeRequest("WC", 80.0));
    batch.push_back(makeRequest("KM", 200.0));
    const auto responses = client->requestBatch(batch);
    ASSERT_EQ(responses.size(), 3u);
    obs::Tracer::instance().setEnabled(false);
    const obs::TraceLog log = obs::Tracer::instance().snapshot();

    std::set<uint64_t> clientSpans;
    for (const auto &event : log.events)
        if (event.name == "net.client.request")
            clientSpans.insert(event.id);
    EXPECT_EQ(clientSpans.size(), 3u)
        << "each batch item opens its own client span";

    // Every server-side request span hangs off one of the three
    // distinct client spans — three separate traces, not one blob.
    std::set<uint64_t> adoptedParents;
    for (const auto &event : log.events) {
        if (event.name != "request")
            continue;
        EXPECT_TRUE(clientSpans.count(event.parent) == 1)
            << "server span with unknown parent " << event.parent;
        adoptedParents.insert(event.parent);
    }
    EXPECT_EQ(adoptedParents.size(), 3u);
}

TEST_F(TraceContextTest, BatchRootSpanCoversEveryServerRequest)
{
    std::vector<service::TuneRequest> batch;
    batch.push_back(makeRequest("TS", 40.0));
    batch.push_back(makeRequest("WC", 80.0));
    batch.push_back(makeRequest("KM", 200.0));
    (void)client->requestBatch(batch);
    obs::Tracer::instance().setEnabled(false);
    const obs::TraceLog log = obs::Tracer::instance().snapshot();

    // One client-side root span lasts until the batch's last reply...
    std::vector<const obs::TraceEvent *> roots;
    for (const auto &event : log.events)
        if (event.isSpan && event.parent == 0)
            roots.push_back(&event);
    ASSERT_EQ(roots.size(), 1u);
    EXPECT_EQ(roots[0]->name, "net.client.batch");

    // ...so every server request span of the batch lies inside it.
    const double rootEnd = roots[0]->startSec + roots[0]->durSec;
    size_t requests = 0;
    for (const auto &event : log.events) {
        if (event.name != "request")
            continue;
        ++requests;
        EXPECT_GE(event.startSec, roots[0]->startSec);
        EXPECT_LE(event.startSec + event.durSec, rootEnd);
    }
    EXPECT_EQ(requests, 3u);
}

TEST_F(TraceContextTest, CallerPinnedTraceIdWins)
{
    service::TuneRequest request = makeRequest("TS", 40.0);
    request.traceId = 0xABCDEF12;
    (void)client->request(request);
    obs::Tracer::instance().setEnabled(false);
    const obs::TraceLog log = obs::Tracer::instance().snapshot();

    bool sawPinnedParent = false;
    for (const auto &event : log.events)
        if (event.name == "request" && event.parent == 0xABCDEF12)
            sawPinnedParent = true;
    EXPECT_TRUE(sawPinnedParent)
        << "an explicit trace id must pass through unchanged";
}

} // namespace
} // namespace dac::net
