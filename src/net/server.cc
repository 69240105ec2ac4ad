#include "net/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "net/protocol.h"
#include "obs/flight_recorder.h"
#include "support/logging.h"

namespace dac::net {

namespace {

/** Relaxed max-update for the batch high-water mark. */
void
atomicMax(std::atomic<uint64_t> &slot, uint64_t value)
{
    uint64_t seen = slot.load(std::memory_order_relaxed);
    while (seen < value && !slot.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed,
                               std::memory_order_relaxed)) {
    }
}

double
elapsedSec(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - since)
        .count();
}

} // namespace

/**
 * One accepted connection, pinned to one event loop. Every member is
 * loop-thread-only; cross-thread response delivery goes through
 * EventLoop::runInLoop.
 */
class Connection : public std::enable_shared_from_this<Connection>
{
  public:
    Connection(TuningServer &server, TuningServer::Loop &home,
               Socket socket, size_t max_frame)
        : server(server), home(home), socket(std::move(socket)),
          decoder(max_frame)
    {
    }

    [[nodiscard]] int fd() const { return socket.fd(); }

    /** The event loop this connection is pinned to. */
    [[nodiscard]] EventLoop &homeLoop() { return home.loop; }

    /** The loop slot (event loop + cached metrics) it is pinned to. */
    [[nodiscard]] TuningServer::Loop &homeSlot() { return home; }

    /** Register with the home loop; loop thread only. */
    void
    attach()
    {
        auto self = shared_from_this();
        home.loop.watch(fd(), true, false,
                        [self](const ReadyEvent &event) {
                            self->handleReady(event);
                        });
    }

    /**
     * Queue encoded bytes and flush what the kernel will take now;
     * loop thread only. Closed connections drop silently (the peer is
     * gone; there is nobody to tell).
     */
    void
    send(const std::vector<uint8_t> &bytes)
    {
        if (closed)
            return;
        outBuffer.insert(outBuffer.end(), bytes.begin(), bytes.end());
        flushOut();
    }

    /** Loop thread only; safe to call repeatedly. */
    void
    close()
    {
        if (closed)
            return;
        closed = true;
        home.loop.unwatch(fd());
        socket.close();
        server.onConnectionClosed(home, fdAtAttach);
    }

    /** Remember the fd used as the map key (socket.close() wipes it). */
    void
    markAttached()
    {
        fdAtAttach = fd();
    }

  private:
    void
    handleReady(const ReadyEvent &event)
    {
        if (closed)
            return;
        if (event.writable)
            flushOut();
        if (closed)
            return;
        if (event.readable || event.broken)
            handleReadable();
    }

    void
    handleReadable()
    {
        bool sawEof = false;
        bool sawError = false;
        uint8_t chunk[kReadChunkBytes];
        for (;;) {
            const ReadResult r = readSome(fd(), chunk, sizeof(chunk));
            if (r.bytes > 0) {
                decoder.feed(chunk, r.bytes);
                continue;
            }
            sawEof = r.eof;
            sawError = r.error;
            break;
        }

        // Drain every complete frame buffered so far: this whole
        // readiness cycle's worth of requests becomes one batch.
        std::vector<uint32_t> ids;
        std::vector<uint8_t> versions;
        std::vector<service::TuneRequest> requests;
        std::vector<uint8_t> inlineReplies;
        bool malformed = false;
        Frame frame;
        for (;;) {
            const FrameDecoder::Result result = decoder.next(&frame);
            if (result == FrameDecoder::Result::NeedMore)
                break;
            if (result == FrameDecoder::Result::Malformed) {
                malformed = true;
                break;
            }
            server.counters.framesReceived.fetch_add(
                1, std::memory_order_relaxed);
            switch (frame.type) {
            case MsgType::Ping:
                appendFrame(inlineReplies, MsgType::Pong,
                            frame.requestId, nullptr, 0, frame.version);
                server.counters.framesSent.fetch_add(
                    1, std::memory_order_relaxed);
                break;
            case MsgType::TuneRequest:
                try {
                    const auto decodeStart =
                        std::chrono::steady_clock::now();
                    service::TuneRequest request =
                        decodeTuneRequest(frame.payload, frame.version);
                    request.decodeSec = elapsedSec(decodeStart);
                    request.wireId = frame.requestId;
                    obs::FlightRecorder::record(frame.requestId,
                                                obs::FlightPhase::Decode,
                                                request.decodeSec);
                    requests.push_back(std::move(request));
                    ids.push_back(frame.requestId);
                    versions.push_back(frame.version);
                } catch (const ProtocolError &e) {
                    server.counters.protocolErrors.fetch_add(
                        1, std::memory_order_relaxed);
                    const auto payload = encodeError(e.what());
                    appendFrame(inlineReplies, MsgType::Error,
                                frame.requestId, payload.data(),
                                payload.size(), frame.version);
                    server.counters.framesSent.fetch_add(
                        1, std::memory_order_relaxed);
                }
                break;
            case MsgType::Stats: {
                // Served inline on the loop thread: a stats snapshot
                // must come back even when the worker pool is wedged —
                // that is exactly when the caller wants it.
                std::vector<uint8_t> payload;
                MsgType replyType = MsgType::StatsReply;
                try {
                    const StatsRequest statsRequest =
                        decodeStatsRequest(frame.payload);
                    payload = encodeTextReply(
                        server.renderStats(statsRequest.format));
                } catch (const ProtocolError &e) {
                    server.counters.protocolErrors.fetch_add(
                        1, std::memory_order_relaxed);
                    replyType = MsgType::Error;
                    payload = encodeError(e.what());
                }
                appendFrame(inlineReplies, replyType, frame.requestId,
                            payload.data(), payload.size(),
                            frame.version);
                server.counters.framesSent.fetch_add(
                    1, std::memory_order_relaxed);
                break;
            }
            case MsgType::FlightDump: {
                std::vector<uint8_t> payload;
                MsgType replyType = MsgType::FlightDumpReply;
                try {
                    const FlightDumpRequest dumpRequest =
                        decodeFlightDumpRequest(frame.payload);
                    // Every record renders to well under 160 bytes of
                    // JSON, so this cap keeps the reply inside the
                    // frame payload ceiling (1 MiB) with headroom;
                    // the dump reports how many records it dropped.
                    constexpr size_t kMaxWireDumpRecords = 6000;
                    payload = encodeTextReply(
                        obs::FlightRecorder::instance().dumpJson(
                            dumpRequest.windowSec, kMaxWireDumpRecords));
                } catch (const ProtocolError &e) {
                    server.counters.protocolErrors.fetch_add(
                        1, std::memory_order_relaxed);
                    replyType = MsgType::Error;
                    payload = encodeError(e.what());
                }
                appendFrame(inlineReplies, replyType, frame.requestId,
                            payload.data(), payload.size(),
                            frame.version);
                server.counters.framesSent.fetch_add(
                    1, std::memory_order_relaxed);
                break;
            }
            case MsgType::Snapshot: {
                // Like Stats: answered inline on the loop thread, so
                // an operator can trigger a persist-now pass even when
                // the worker pool is saturated with tune requests.
                std::vector<uint8_t> payload;
                MsgType replyType = MsgType::SnapshotReply;
                try {
                    const SnapshotRequest snapRequest =
                        decodeSnapshotRequest(frame.payload);
                    payload = encodeTextReply(
                        server.renderSnapshot(snapRequest.op));
                } catch (const ProtocolError &e) {
                    server.counters.protocolErrors.fetch_add(
                        1, std::memory_order_relaxed);
                    replyType = MsgType::Error;
                    payload = encodeError(e.what());
                }
                appendFrame(inlineReplies, replyType, frame.requestId,
                            payload.data(), payload.size(),
                            frame.version);
                server.counters.framesSent.fetch_add(
                    1, std::memory_order_relaxed);
                break;
            }
            case MsgType::TuneResponse:
            case MsgType::Error:
            case MsgType::Pong:
            case MsgType::StatsReply:
            case MsgType::FlightDumpReply:
            case MsgType::SnapshotReply:
            default: {
                // Response-side frames a client has no business
                // sending, and type bytes this build does not know
                // (the decoder passes them through — framing is still
                // aligned): answer with an error but keep the stream.
                server.counters.protocolErrors.fetch_add(
                    1, std::memory_order_relaxed);
                const auto payload =
                    encodeError("unexpected frame type");
                appendFrame(inlineReplies, MsgType::Error,
                            frame.requestId, payload.data(),
                            payload.size(), frame.version);
                server.counters.framesSent.fetch_add(
                    1, std::memory_order_relaxed);
                break;
            }
            }
        }

        if (!inlineReplies.empty())
            send(inlineReplies);
        if (!requests.empty()) {
            server.dispatchBatch(shared_from_this(), std::move(ids),
                                 std::move(versions),
                                 std::move(requests));
        }
        if (malformed) {
            server.counters.protocolErrors.fetch_add(
                1, std::memory_order_relaxed);
            close();
            return;
        }
        if (sawEof || sawError)
            close();
    }

    void
    flushOut()
    {
        while (outOffset < outBuffer.size()) {
            const WriteResult w =
                writeSome(fd(), outBuffer.data() + outOffset,
                          outBuffer.size() - outOffset);
            if (w.bytes > 0) {
                outOffset += w.bytes;
                continue;
            }
            if (w.again)
                break;
            close();
            return;
        }
        if (outOffset == outBuffer.size()) {
            outBuffer.clear();
            outOffset = 0;
            if (writeInterest) {
                writeInterest = false;
                home.loop.updateInterest(fd(), true, false);
            }
        } else if (!writeInterest) {
            writeInterest = true;
            home.loop.updateInterest(fd(), true, true);
        }
    }

    TuningServer &server;
    TuningServer::Loop &home;
    Socket socket;
    FrameDecoder decoder;
    /** Coalesced pending output; flushed down to the kernel as
     *  writability allows. */
    std::vector<uint8_t> outBuffer;
    size_t outOffset = 0;
    bool writeInterest = false;
    bool closed = false;
    int fdAtAttach = -1;
};

TuningServer::TuningServer(service::TuningBackend &backend,
                           ServerOptions options)
    : backend(&backend), options(std::move(options))
{
    DAC_ASSERT(this->options.eventLoops > 0,
               "server needs at least one event loop");
    DAC_ASSERT(this->options.replyThreads > 0,
               "server needs at least one reply thread");
}

TuningServer::~TuningServer()
{
    stop();
}

void
TuningServer::start()
{
    DAC_ASSERT(!started.load(std::memory_order_acquire),
               "TuningServer::start called twice");
    listener = listenTcp(options.host, options.port);

    replyPool = std::make_unique<service::ThreadPool>(
        service::ThreadPool::Options{options.replyThreads, 1024});

    loops.reserve(options.eventLoops);
    for (size_t i = 0; i < options.eventLoops; ++i)
        loops.push_back(std::make_unique<Loop>());
    if (options.metrics != nullptr) {
        // Resolve every metric once, up front: the hot path then costs
        // an atomic bump, never the registry lock.
        for (size_t i = 0; i < loops.size(); ++i) {
            const std::string stem = "net.loop" + std::to_string(i);
            loops[i]->redRequests =
                &options.metrics->counter(stem + ".requests");
            loops[i]->redErrors =
                &options.metrics->counter(stem + ".errors");
            loops[i]->redDuration =
                &options.metrics->histogram(stem + ".duration");
        }
        serializeHist = &options.metrics->histogram("phase.serialize");
        writeHist = &options.metrics->histogram("phase.write");
    }
    for (auto &loop : loops) {
        Loop *raw = loop.get();
        loop->thread = std::thread([raw]() { raw->loop.run(); });
    }

    // The listener lives on loop 0.
    Loop *loop0 = loops[0].get();
    const int listen_fd = listener.fd();
    loop0->loop.runInLoop([this, loop0, listen_fd]() {
        loop0->loop.watch(listen_fd, true, false,
                          [this](const ReadyEvent &) { acceptReady(); });
    });
    started.store(true, std::memory_order_release);
}

uint16_t
TuningServer::port() const
{
    DAC_ASSERT(listener.valid(), "port() before start()");
    return localPort(listener.fd());
}

void
TuningServer::acceptReady()
{
    for (;;) {
        Socket accepted = acceptOne(listener.fd());
        if (!accepted.valid())
            return;
        counters.connectionsAccepted.fetch_add(
            1, std::memory_order_relaxed);
        Loop *target = loops[nextLoop].get();
        nextLoop = (nextLoop + 1) % loops.size();
        const int fd = accepted.release();
        target->loop.runInLoop(
            [this, target, fd]() { adopt(*target, fd); });
    }
}

void
TuningServer::adopt(Loop &loop, int fd)
{
    auto conn = std::make_shared<Connection>(*this, loop, Socket(fd),
                                             options.maxFrameBytes);
    conn->markAttached();
    loop.connections.emplace(fd, conn);
    conn->attach();
}

void
TuningServer::onConnectionClosed(Loop &loop, int fd)
{
    counters.connectionsClosed.fetch_add(1, std::memory_order_relaxed);
    loop.connections.erase(fd);
}

void
TuningServer::dispatchBatch(const std::shared_ptr<Connection> &conn,
                            std::vector<uint32_t> ids,
                            std::vector<uint8_t> versions,
                            std::vector<service::TuneRequest> requests)
{
    counters.batchesSubmitted.fetch_add(1, std::memory_order_relaxed);
    counters.requestsSubmitted.fetch_add(requests.size(),
                                         std::memory_order_relaxed);
    atomicMax(counters.maxBatch, requests.size());

    auto futures = backend->submitBatch(std::move(requests));
    DAC_ASSERT(futures.size() == ids.size(),
               "backend returned a short future batch");

    // The reply task is the only place the serving layer blocks:
    // waiting on backend futures happens on the reply pool, never on
    // an event loop. The connection is held weakly — if it dies while
    // the batch is in flight, the responses are simply dropped.
    std::weak_ptr<Connection> weak = conn;
    Loop *home = &conn->homeSlot();
    // Copies for the saturation path below; the task owns the real
    // vectors once constructed.
    const std::vector<uint32_t> degradeIds = ids;
    const std::vector<uint8_t> degradeVersions = versions;
    auto task = [this, weak, home, ids = std::move(ids),
                 versions = std::move(versions),
                 futures = std::make_shared<
                     std::vector<std::future<service::TuneResponse>>>(
                     std::move(futures))]() mutable {
        std::vector<uint8_t> replies;
        for (size_t i = 0; i < futures->size(); ++i) {
            std::vector<uint8_t> payload;
            MsgType type = MsgType::TuneResponse;
            double latencySec = 0.0;
            try {
                service::TuneResponse response = (*futures)[i].get();
                latencySec = response.latencySec;
                const auto serializeStart =
                    std::chrono::steady_clock::now();
                if (versions[i] >= 2) {
                    // Placeholder serialize entry, patched below once
                    // the encoding cost is known.
                    response.phases.push_back(
                        {service::Phase::Serialize, 0.0});
                    payload = encodeTuneResponse(response, versions[i]);
                    const double serializeSec =
                        elapsedSec(serializeStart);
                    patchSerializePhaseSec(payload, serializeSec);
                    if (serializeHist != nullptr)
                        serializeHist->observe(serializeSec);
                    obs::FlightRecorder::record(
                        ids[i], obs::FlightPhase::Serialize,
                        serializeSec);
                } else {
                    payload = encodeTuneResponse(response, versions[i]);
                }
            } catch (const std::exception &e) {
                type = MsgType::Error;
                payload = encodeError(e.what());
                if (home->redErrors != nullptr)
                    home->redErrors->increment();
            }
            // RED per event loop: rate counts every answered request,
            // errors counted above, duration is submit-to-completion.
            if (home->redRequests != nullptr)
                home->redRequests->increment();
            if (type != MsgType::Error && home->redDuration != nullptr)
                home->redDuration->observe(latencySec);
            appendFrame(replies, type, ids[i], payload.data(),
                        payload.size(), versions[i]);
            counters.framesSent.fetch_add(1, std::memory_order_relaxed);
        }
        const uint32_t firstId = ids.empty() ? 0 : ids.front();
        obs::Histogram *write_hist = writeHist;
        home->loop.runInLoop([weak, firstId, write_hist,
                              replies = std::move(replies)]() {
            auto conn = weak.lock();
            if (!conn)
                return;
            const auto writeStart = std::chrono::steady_clock::now();
            conn->send(replies);
            const double writeSec = elapsedSec(writeStart);
            if (write_hist != nullptr)
                write_hist->observe(writeSec);
            obs::FlightRecorder::record(firstId, obs::FlightPhase::Write,
                                        writeSec);
        });
    };
    if (replyPool->tryPost(std::move(task)))
        return;

    // Reply pool saturated: answer the whole batch with inline errors
    // rather than blocking this event loop on the pool's queueSpace.
    // The backend still fulfills the dropped futures — under overload
    // that wasted work is the lesser evil, and the client gets an
    // immediate, honest answer instead of a stalled connection.
    counters.repliesDegraded.fetch_add(degradeIds.size(),
                                       std::memory_order_relaxed);
    std::vector<uint8_t> replies;
    const auto payload = encodeError("reply pool saturated");
    for (size_t i = 0; i < degradeIds.size(); ++i) {
        appendFrame(replies, MsgType::Error, degradeIds[i],
                    payload.data(), payload.size(), degradeVersions[i]);
        counters.framesSent.fetch_add(1, std::memory_order_relaxed);
        if (home->redErrors != nullptr)
            home->redErrors->increment();
    }
    conn->send(replies);
}

void
TuningServer::setStatsProvider(std::function<std::string(StatsFormat)> fn)
{
    DAC_ASSERT(!started.load(std::memory_order_acquire),
               "setStatsProvider after start()");
    statsProvider = std::move(fn);
}

std::string
TuningServer::renderStats(StatsFormat format) const
{
    if (statsProvider)
        return statsProvider(format);
    if (options.metrics != nullptr) {
        return format == StatsFormat::Prometheus
            ? options.metrics->renderPrometheus("dac")
            : options.metrics->renderJson();
    }
    throw ProtocolError("stats unavailable: no provider or registry");
}

void
TuningServer::setSnapshotProvider(std::function<std::string(SnapshotOp)> fn)
{
    DAC_ASSERT(!started.load(std::memory_order_acquire),
               "setSnapshotProvider after start()");
    snapshotProvider = std::move(fn);
}

std::string
TuningServer::renderSnapshot(SnapshotOp op) const
{
    if (snapshotProvider)
        return snapshotProvider(op);
    throw ProtocolError("snapshot unavailable: no provider installed");
}

void
TuningServer::stop()
{
    if (!started.load(std::memory_order_acquire))
        return;
    if (stopped.exchange(true, std::memory_order_acq_rel))
        return;

    // 1. Stop accepting: drop the listener from loop 0, then close it.
    Loop *loop0 = loops[0].get();
    const int listen_fd = listener.fd();
    loop0->loop.runInLoop(
        [loop0, listen_fd]() { loop0->loop.unwatch(listen_fd); });

    // 2. Drain in-flight replies while the loops still run, so every
    //    response already promised gets encoded and queued.
    replyPool->shutdown();

    // 3. Stop the loops (each drains its pending sends on exit), join,
    //    and close whatever connections remain.
    for (auto &loop : loops)
        loop->loop.stop();
    for (auto &loop : loops) {
        if (loop->thread.joinable())
            loop->thread.join();
        loop->connections.clear();
    }
    listener.close();
}

TuningServer::Stats
TuningServer::stats() const
{
    Stats out;
    out.connectionsAccepted =
        counters.connectionsAccepted.load(std::memory_order_relaxed);
    out.connectionsClosed =
        counters.connectionsClosed.load(std::memory_order_relaxed);
    out.framesReceived =
        counters.framesReceived.load(std::memory_order_relaxed);
    out.framesSent = counters.framesSent.load(std::memory_order_relaxed);
    out.batchesSubmitted =
        counters.batchesSubmitted.load(std::memory_order_relaxed);
    out.requestsSubmitted =
        counters.requestsSubmitted.load(std::memory_order_relaxed);
    out.maxBatch = counters.maxBatch.load(std::memory_order_relaxed);
    out.protocolErrors =
        counters.protocolErrors.load(std::memory_order_relaxed);
    out.repliesDegraded =
        counters.repliesDegraded.load(std::memory_order_relaxed);
    return out;
}

} // namespace dac::net
