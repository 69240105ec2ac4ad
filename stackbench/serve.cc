/**
 * @file
 * The three wire workloads, against an in-process TuningServer over
 * loopback TCP after the 12 models were built over the wire.
 *
 * serve-unique: an open loop at a fixed rate well under capacity, one
 * request per frame, each a fresh (program, size, seed) triple drawn
 * uniformly over the 30 pairs. Steady-state serving: GA search and
 * predictBatch dominate, and no answer is asked twice. It also carries
 * the shard-skew rebuilds: KM#7, NW#3 and WC#6 share a 2-slot shard.
 *
 * serve-serial: a closed loop over one connection with one request in
 * flight, drawn as serve-unique draws them, a fixed number per second
 * of --seconds. Warm-serving latency with the shard-skew rebuilds but
 * without queueing: only one request at a time ever occupies the pool.
 *
 * serve-repeat: a closed loop over nproc - 2 connections, each
 * pipelining batches of 8 frames per write, Zipf-skewed over the pairs
 * with a few fixed seeds, so most requests repeat an earlier triple.
 * The one workload where wire batching, submitBatch deduplication and
 * coalescing do real work; its answers_per_s is saturation throughput.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <set>
#include <thread>

#include "net/client.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "obs/flight_recorder.h"
#include "run.h"
#include "stats.h"
#include "traffic.h"

namespace stackbench {

namespace {

const char *const kHost = "127.0.0.1";
/** serve-unique's offered load, requests per second. */
constexpr double kUniqueRate = 50.0;
/** Requests per serve-repeat wire write. */
constexpr size_t kRepeatBatch = 8;
/** Each serve-repeat connection's stream prefix the fixed sample is
 *  drawn from; every run must get this far. */
constexpr size_t kRepeatPrefix = 800;
/** serve-serial's stream prefix: its fixed samples, every answer of
 *  which the quality metrics score. */
constexpr size_t kSerialPrefix = 600;
/** serve-serial requests per second of --seconds: about its closed-loop
 *  rate on a 4-core host with two pool workers. */
constexpr double kSerialPerSecond = 110.0;
/** Length of a block (blockAt), seconds. */
constexpr double kBlockSec = 1.0;
/** How long the open loop waits for stragglers after its last send. */
constexpr double kReplyTimeoutSec = 30.0;
/** Seed domain of the warm-up requests. */
constexpr uint64_t kWarmUpDomain = 0x3A53;

/** How a request due or sent `t` seconds into the window is served. */
Block
blockAtTime(bool traced, double t)
{
    return blockAt(traced, static_cast<size_t>(t / kBlockSec));
}

/** Set-up warm-up: build the 12 models over the wire, one request per
 *  model key. */
void
warmUpOverWire(Stack &stack, uint64_t seed, Outcome &out)
{
    dac::net::Client client(kHost, stack.server.port());
    const auto &keys = modelKeys();
    for (size_t k = 0; k < keys.size(); ++k) {
        const auto request = makeRequest(
            keys[k].pairs.front(),
            dac::combineSeed(dac::combineSeed(seed, kWarmUpDomain), k));
        std::string problem;
        try {
            problem = answerProblem(client.request(request));
        } catch (const dac::net::RpcError &error) {
            problem = error.what();
        }
        if (!problem.empty())
            out.problems.push_back("warm-up " + where(request) + ": " +
                                   problem);
    }
}

std::vector<double>
setUpServe(const RunConfig &config, std::unique_ptr<Stack> &stack,
           Outcome &out)
{
    return setUpRepeatedly(config.traced ? 1 : kSetupReps, config.traced,
                           stack, [&](Stack &s) {
                               warmUpOverWire(s, config.seed, out);
                           });
}

/** Wire counters of both servers a traced run talks to. */
dac::net::TuningServer::Stats
serverStats(const Stack &stack)
{
    auto stats = stack.server.stats();
    if (stack.bare) {
        const auto bare = stack.bare->stats();
        stats.connectionsAccepted += bare.connectionsAccepted;
        stats.connectionsClosed += bare.connectionsClosed;
        stats.framesReceived += bare.framesReceived;
        stats.framesSent += bare.framesSent;
        stats.batchesSubmitted += bare.batchesSubmitted;
        stats.requestsSubmitted += bare.requestsSubmitted;
        stats.maxBatch = std::max(stats.maxBatch, bare.maxBatch);
        stats.protocolErrors += bare.protocolErrors;
        stats.repliesDegraded += bare.repliesDegraded;
    }
    return stats;
}

/**
 * What both serve workloads do after their window: judge every answer,
 * then ask the fixed `sample` again in-process; each in-process answer
 * must equal the wire answer bit for bit. The quality metrics score
 * each distinct request of the fixed `quality` set once, taking the
 * in-process answer where the wire answer failed, so they depend
 * only on the seed. Then report the end-to-end metrics or, traced,
 * replay the sample layer by layer and report the per-layer metrics.
 */
void
finishServe(const RunConfig &config, Stack &stack,
            std::vector<Served> &served, const std::vector<size_t> &sample,
            const std::vector<size_t> &quality, double window_sec,
            const std::vector<double> &setup_secs, Layers &layers,
            bool check_layer_sum, Outcome &out)
{
    judge(served, out);
    const auto inProcess = [&](const Served &s) {
        Served direct = s;
        direct.response = stack.service.submit(direct.request).get();
        std::string problem = answerProblem(direct.response);
        if (problem.empty() && s.ok)
            problem = answerDifference(s.response, direct.response);
        if (!problem.empty()) {
            out.problems.push_back("in-process answer for " +
                                   where(direct.request) + ": " + problem);
        }
        return direct;
    };
    std::vector<Served> sampled;
    for (const size_t i : sample)
        sampled.push_back(inProcess(served[i]));

    if (!config.traced) {
        std::set<std::string> seen;
        std::vector<dac::service::TuneResponse> answers;
        for (const size_t i : quality) {
            if (!seen.insert(served[i].request.cacheKey()).second)
                continue;
            answers.push_back(served[i].ok ? served[i].response
                                           : inProcess(served[i]).response);
        }
        EndToEnd e2e;
        e2e.setupSecs = setup_secs;
        e2e.tailCap = 99.0;
        e2e.windowSec = window_sec;
        e2e.quality = evaluateQuality(stack.sim, answers);
        addEndToEnd(served, e2e, out);
        return;
    }
    layers.wire = &served;
    probeLayers(stack.sim, sampled, layers, out);
    addLayers(served, layers, check_layer_sum, out);
}

} // namespace

Outcome
runServeUnique(const RunConfig &config)
{
    Outcome out;
    std::unique_ptr<Stack> stack;
    const auto setupSecs = setUpServe(config, stack, out);

    const size_t n =
        static_cast<size_t>(std::llround(kUniqueRate * config.seconds));
    OpenLoopLedger ledger(n, kUniqueRate);
    std::vector<Served> served(n);
    {
        auto schedule = serveUniqueSchedule(config.seed, n);
        for (size_t i = 0; i < n; ++i) {
            const Block block = blockAtTime(config.traced, ledger.due(i));
            served[i].request = std::move(schedule[i]);
            served[i].traced = block.traced;
            served[i].obsOn = block.obsOn;
        }
    }

    // Connection 0 reaches the deployed server; a traced run's
    // obs-off blocks go to connection 1, the server without metrics.
    std::vector<dac::net::Socket> sockets;
    sockets.push_back(dac::net::connectTcp(kHost, stack->server.port()));
    if (config.traced)
        sockets.push_back(dac::net::connectTcp(kHost, stack->bare->port()));
    for (const auto &socket : sockets)
        dac::net::setNoDelay(socket.fd());

    // Each record is written by one thread only: the sender owns
    // sendProblem, the receiver of its connection owns the response
    // and recvProblem; all are read after the threads are joined.
    std::vector<std::string> sendProblem(n);
    std::vector<std::string> recvProblem(n);
    std::vector<std::atomic<size_t>> sentOn(sockets.size());
    std::atomic<bool> senderDone{false};
    auto &recorder = dac::obs::FlightRecorder::instance();

    const auto cacheBefore = stack->service.cacheStats();
    const auto serverBefore = serverStats(*stack);
    const CpuTimes cpuBefore = readCpuTimes();
    const auto start = Clock::now();
    const auto now = [start] { return secondsSince(start); };
    const double deadline =
        (n == 0 ? 0.0 : ledger.due(n - 1)) + kReplyTimeoutSec;

    const auto receive = [&](size_t c) {
        dac::net::FrameDecoder decoder;
        std::vector<uint8_t> chunk(dac::net::kReadChunkBytes);
        size_t got = 0;
        while (!(senderDone.load() && got == sentOn[c].load()) &&
               now() < deadline) {
            const long bytes = dac::net::readWithTimeout(
                sockets[c].fd(), chunk.data(), chunk.size(), 0.05);
            if (bytes == 0)
                break;
            if (bytes < 0)
                continue;
            decoder.feed(chunk.data(), static_cast<size_t>(bytes));
            dac::net::Frame frame;
            dac::net::FrameDecoder::Result result;
            while ((result = decoder.next(&frame)) ==
                   dac::net::FrameDecoder::Result::Frame) {
                if (frame.requestId == 0 || frame.requestId > n)
                    continue;
                const size_t i = frame.requestId - 1;
                try {
                    if (frame.type == dac::net::MsgType::TuneResponse) {
                        served[i].response = dac::net::decodeTuneResponse(
                            frame.payload, dac::conf::ConfigSpace::spark(),
                            frame.version);
                    } else if (frame.type == dac::net::MsgType::Error) {
                        recvProblem[i] = "error reply: " +
                                         dac::net::decodeError(frame.payload);
                    } else {
                        recvProblem[i] = "unexpected reply frame type";
                    }
                } catch (const dac::net::ProtocolError &error) {
                    recvProblem[i] = error.what();
                }
                ledger.replied(i, now());
                ++got;
            }
            if (result == dac::net::FrameDecoder::Result::Malformed)
                break;
        }
    };
    std::vector<std::thread> receivers;
    for (size_t c = 0; c < sockets.size(); ++c)
        receivers.emplace_back(receive, c);

    paceOpenLoop(
        ledger, now,
        [start](double t) {
            std::this_thread::sleep_until(
                start + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(t)));
        },
        [&](size_t i) {
            const size_t c = served[i].obsOn ? 0 : 1;
            if (config.traced && recorder.enabled() != served[i].obsOn)
                recorder.setEnabled(served[i].obsOn);
            const auto frame = dac::net::encodeFrame(
                dac::net::MsgType::TuneRequest, static_cast<uint32_t>(i + 1),
                dac::net::encodeTuneRequest(served[i].request));
            if (dac::net::writeAll(sockets[c].fd(), frame.data(),
                                   frame.size()))
                sentOn[c].fetch_add(1);
            else
                sendProblem[i] = "connection lost while sending";
        });
    senderDone.store(true);
    for (auto &receiver : receivers)
        receiver.join();
    recorder.setEnabled(true);

    RepeatCounter repeats;
    for (size_t i = 0; i < n; ++i) {
        Served &s = served[i];
        repeats.observe(s.request.workload, s.request.nativeSize,
                        s.request.seed);
        if (!sendProblem[i].empty())
            s.problem = sendProblem[i];
        else if (!ledger.answered(i))
            s.problem = "no reply";
        else
            s.problem = recvProblem[i];
        if (ledger.answered(i)) {
            s.latencySec = ledger.latency(i);
            s.rttSec = ledger.latency(i) - ledger.lateness(i);
        }
    }
    const auto late = ledger.latenesses();
    out.context.push_back(
        "cpu_steal_pct=" + std::to_string(stealPct(cpuBefore, readCpuTimes())) +
        " rate_per_s=" + std::to_string(kUniqueRate) +
        " generator_late_max_ms=" +
        std::to_string(percentile(late, 100.0) * 1e3) +
        " generator_late_p99_ms=" +
        std::to_string(percentile(late, 99.0) * 1e3));

    Layers layers;
    layers.delta.cache = statsDelta(stack->service.cacheStats(), cacheBefore);
    layers.delta.server = statsDelta(serverStats(*stack), serverBefore);
    layers.repeatShare = repeats.share();
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i)
        all[i] = i;
    finishServe(config, *stack, served, firstOfEachPair(served), all,
                ledger.lastReply(), setupSecs, layers, true, out);
    return out;
}

namespace {

/** How a closed-loop workload drives the server. */
struct ClosedLoop
{
    size_t connections = 1;
    /** Requests per wire write. */
    size_t batch = 1;
    /** Requests of each connection's stream every run must answer:
     *  the fixed samples are drawn from them. */
    size_t prefix = 0;
    /** Requests each connection sends before it stops; 0: send until
     *  --seconds have passed. */
    size_t requests = 0;
    /** Gate the run on the layer-sum check. */
    bool checkLayerSum = false;
};

/**
 * A closed loop over `loop.connections` connections, each sending the
 * next `loop.batch` requests of its own stream (`make_stream(c)`, with
 * nextBatch) and waiting for every reply before it sends again.
 */
template <typename MakeStream>
Outcome
runClosedLoop(const RunConfig &config, const ClosedLoop &loop,
              MakeStream make_stream)
{
    Outcome out;
    std::unique_ptr<Stack> stack;
    const auto setupSecs = setUpServe(config, stack, out);

    /** One connection's requests in stream order, with send times. */
    struct Connection
    {
        std::vector<Served> served;
        std::vector<double> sentAt;
        double lastReply = 0.0;
    };
    std::vector<Connection> conns(loop.connections);
    std::atomic<bool> stop{false};
    std::atomic<size_t> running{loop.connections};
    auto &recorder = dac::obs::FlightRecorder::instance();

    const auto cacheBefore = stack->service.cacheStats();
    const auto serverBefore = serverStats(*stack);
    const CpuTimes cpuBefore = readCpuTimes();
    const auto start = Clock::now();
    const auto runConnection = [&](size_t c) {
        Connection &conn = conns[c];
        dac::net::Client client(kHost, stack->server.port());
        std::optional<dac::net::Client> bare;
        if (config.traced)
            bare.emplace(kHost, stack->bare->port());
        auto stream = make_stream(c);
        while (!stop.load() &&
               (loop.requests == 0 || conn.served.size() < loop.requests)) {
            auto batch = stream.nextBatch(loop.batch);
            const auto t0 = Clock::now();
            const double sentAt =
                std::chrono::duration<double>(t0 - start).count();
            const Block block = blockAtTime(config.traced, sentAt);
            std::vector<dac::service::TuneResponse> responses;
            std::string problem;
            try {
                responses =
                    (block.obsOn ? client : *bare).requestBatch(batch);
            } catch (const dac::net::RpcError &error) {
                problem = error.what();
            }
            const auto t1 = Clock::now();
            const double rtt = std::chrono::duration<double>(t1 - t0).count();
            for (size_t j = 0; j < batch.size(); ++j) {
                Served s;
                s.request = std::move(batch[j]);
                if (problem.empty())
                    s.response = std::move(responses[j]);
                s.problem = problem;
                s.latencySec = s.rttSec = rtt;
                s.traced = block.traced;
                s.obsOn = block.obsOn;
                conn.served.push_back(std::move(s));
                conn.sentAt.push_back(sentAt);
            }
            conn.lastReply = std::chrono::duration<double>(t1 - start).count();
            if (!problem.empty())
                break;
        }
        running.fetch_sub(1);
    };
    std::vector<std::thread> threads;
    for (size_t c = 0; c < loop.connections; ++c)
        threads.emplace_back(runConnection, c);
    // The main thread keeps the process-wide flight recorder in step
    // with the traced run's observability blocks.
    while (running.load() > 0 &&
           (loop.requests > 0 || secondsSince(start) < config.seconds)) {
        if (config.traced)
            recorder.setEnabled(
                blockAtTime(true, secondsSince(start)).obsOn);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    stop.store(true);
    for (auto &thread : threads)
        thread.join();
    recorder.setEnabled(true);

    // Records go connection by connection. The repeat share counts in
    // send order across connections; the fixed sample is drawn from
    // each connection's stream prefix, which depends only on the seed.
    std::vector<Served> served;
    std::vector<Served> prefixes;
    std::vector<size_t> prefixIndex;
    std::vector<std::pair<double, size_t>> sendOrder;
    double windowSec = 0.0;
    for (Connection &conn : conns) {
        if (conn.served.size() < loop.prefix)
            out.problems.push_back("a connection answered fewer than " +
                                   std::to_string(loop.prefix) +
                                   " requests");
        for (size_t i = 0; i < conn.served.size(); ++i) {
            if (i < loop.prefix) {
                prefixes.push_back(conn.served[i]);
                prefixIndex.push_back(served.size());
            }
            sendOrder.emplace_back(conn.sentAt[i], served.size());
            served.push_back(std::move(conn.served[i]));
        }
        windowSec = std::max(windowSec, conn.lastReply);
    }
    std::stable_sort(sendOrder.begin(), sendOrder.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    RepeatCounter repeats;
    for (const auto &[sentAt, i] : sendOrder)
        repeats.observe(served[i].request.workload,
                        served[i].request.nativeSize, served[i].request.seed);
    std::vector<size_t> sample;
    for (const size_t p : firstOfEachPair(prefixes))
        sample.push_back(prefixIndex[p]);

    out.context.push_back(
        "cpu_steal_pct=" + std::to_string(stealPct(cpuBefore, readCpuTimes())) +
        " connections=" + std::to_string(loop.connections) +
        " batch=" + std::to_string(loop.batch) +
        " repeat_share=" + std::to_string(repeats.share()));

    Layers layers;
    layers.delta.cache = statsDelta(stack->service.cacheStats(), cacheBefore);
    layers.delta.server = statsDelta(serverStats(*stack), serverBefore);
    layers.repeatShare = repeats.share();
    finishServe(config, *stack, served, sample, prefixIndex, windowSec,
                setupSecs, layers, loop.checkLayerSum, out);
    return out;
}

} // namespace

Outcome
runServeRepeat(const RunConfig &config)
{
    ClosedLoop loop;
    loop.connections = poolWorkers();
    loop.batch = kRepeatBatch;
    loop.prefix = kRepeatPrefix;
    return runClosedLoop(config, loop, [&](size_t c) {
        return RepeatStream(config.seed, c);
    });
}

Outcome
runServeSerial(const RunConfig &config)
{
    ClosedLoop loop;
    loop.prefix = kSerialPrefix;
    loop.requests = std::max(
        kSerialPrefix,
        static_cast<size_t>(std::llround(kSerialPerSecond * config.seconds)));
    loop.checkLayerSum = true;
    return runClosedLoop(config, loop, [&](size_t) {
        return UniqueStream(config.seed);
    });
}

} // namespace stackbench
