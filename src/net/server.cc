#include "net/server.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "net/frame.h"
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

/** Cap on a FlightDump reply. Every record renders to well under 160
 *  bytes of JSON, so this keeps the reply inside the frame payload
 *  ceiling (1 MiB) with headroom; the dump reports how many records
 *  it dropped. */
constexpr size_t kMaxWireDumpRecords = 6000;

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
               Socket socket)
        : server(server), home(home), socket(std::move(socket))
    {
    }

    [[nodiscard]] int fd() const { return socket.fd(); }

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
        // readiness cycle's worth of requests becomes one batch, and
        // every other frame gets its reply inline, through one path.
        std::vector<service::TuneJob> jobs;
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
            MsgType replyType = MsgType::Error;
            std::vector<uint8_t> payload;
            try {
                switch (frame.type) {
                case MsgType::TuneRequest: {
                    const auto decodeStart =
                        std::chrono::steady_clock::now();
                    service::TuneRequest request =
                        decodeTuneRequest(frame.payload, frame.version);
                    request.decodeSec = elapsedSec(decodeStart);
                    request.wireId = frame.requestId;
                    obs::FlightRecorder::record(frame.requestId,
                                                obs::FlightPhase::Decode,
                                                request.decodeSec);
                    // The reply is framed (and payload-encoded) with
                    // the version the request arrived with.
                    jobs.push_back(
                        {std::move(request),
                         [&server = server, &home = home,
                          weak = weak_from_this(), id = frame.requestId,
                          version = frame.version](
                             service::TuneResponse response,
                             std::exception_ptr error) {
                             server.reply(home, weak, id, version,
                                          std::move(response), error);
                         }});
                    continue; // the job's reply answers it
                }
                case MsgType::Ping:
                    replyType = MsgType::Pong;
                    break;
                // The admin frames are served inline on the loop
                // thread: a stats snapshot or a persist-now pass must
                // come back even when the worker pool is wedged or
                // saturated, which is exactly when the caller wants it.
                case MsgType::Stats:
                    replyType = MsgType::StatsReply;
                    payload = encodeTextReply(server.renderStats(
                        decodeStatsRequest(frame.payload).format));
                    break;
                case MsgType::FlightDump:
                    replyType = MsgType::FlightDumpReply;
                    payload = encodeTextReply(
                        obs::FlightRecorder::instance().dumpJson(
                            decodeFlightDumpRequest(frame.payload)
                                .windowSec,
                            kMaxWireDumpRecords));
                    break;
                case MsgType::Snapshot:
                    replyType = MsgType::SnapshotReply;
                    payload = encodeTextReply(server.renderSnapshot(
                        decodeSnapshotRequest(frame.payload).op));
                    break;
                case MsgType::TuneResponse:
                case MsgType::Error:
                case MsgType::Pong:
                case MsgType::StatsReply:
                case MsgType::FlightDumpReply:
                case MsgType::SnapshotReply:
                default:
                    // Response-side frames a client has no business
                    // sending, and type bytes this build does not know
                    // (the decoder passes them through — framing is
                    // still aligned).
                    throw ProtocolError("unexpected frame type");
                }
            } catch (const ProtocolError &e) {
                // Answer with an error but keep the stream.
                server.counters.protocolErrors.fetch_add(
                    1, std::memory_order_relaxed);
                replyType = MsgType::Error;
                payload = encodeError(e.what());
            }
            appendFrame(inlineReplies, replyType, frame.requestId,
                        payload.data(), payload.size(), frame.version);
            server.counters.framesSent.fetch_add(
                1, std::memory_order_relaxed);
        }

        if (!inlineReplies.empty())
            send(inlineReplies);
        if (!jobs.empty())
            server.dispatchBatch(*this, std::move(jobs));
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
        Loop &slot = *loop;
        slot.thread = std::thread([&slot]() { slot.loop.run(); });
    }

    // The listener lives on loop 0.
    EventLoop &loop0 = loops[0]->loop;
    const int listen_fd = listener.fd();
    loop0.runInLoop([this, &loop0, listen_fd]() {
        loop0.watch(listen_fd, true, false,
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
        Loop &target = *loops[nextLoop];
        nextLoop = (nextLoop + 1) % loops.size();
        const int fd = accepted.release();
        target.loop.runInLoop(
            [this, &target, fd]() { adopt(target, fd); });
    }
}

void
TuningServer::adopt(Loop &loop, int fd)
{
    auto conn = std::make_shared<Connection>(*this, loop, Socket(fd));
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
TuningServer::dispatchBatch(Connection &conn,
                            std::vector<service::TuneJob> jobs)
{
    const size_t n = jobs.size();
    bool refuse = false;
    {
        // Counted before the backend sees them: a backend may answer
        // (and release) a request before submitBatch returns.
        std::lock_guard<std::mutex> lock(drainMutex);
        inFlight += n;
        refuse = stopping;
    }
    if (refuse) {
        counters.repliesDegraded.fetch_add(n, std::memory_order_relaxed);
        const auto error =
            std::make_exception_ptr(std::runtime_error("server stopping"));
        for (service::TuneJob &job : jobs)
            job.reply(service::TuneResponse{}, error);
        return;
    }
    counters.batchesSubmitted.fetch_add(1, std::memory_order_relaxed);
    counters.requestsSubmitted.fetch_add(n, std::memory_order_relaxed);
    atomicMax(counters.maxBatch, n);
    try {
        backend->submitBatch(std::move(jobs));
    } catch (const std::exception &e) {
        // A throwing backend answered none of the batch (backend.h)
        // and never will: release it, and close the connection rather
        // than leave its requests waiting forever.
        release(n);
        warn(std::string("backend rejected a batch: ") + e.what());
        conn.close();
    }
}

void
TuningServer::reply(Loop &home, const std::weak_ptr<Connection> &conn,
                    uint32_t id, uint8_t version,
                    service::TuneResponse response,
                    std::exception_ptr error)
{
    std::vector<uint8_t> payload;
    MsgType type = MsgType::TuneResponse;
    try {
        if (error)
            std::rethrow_exception(error);
        if (version >= 2) {
            // Placeholder serialize entry, patched below once the
            // encoding cost is known.
            const auto serializeStart = std::chrono::steady_clock::now();
            response.phases.push_back({service::Phase::Serialize, 0.0});
            payload = encodeTuneResponse(response, version);
            const double serializeSec = elapsedSec(serializeStart);
            patchSerializePhaseSec(payload, serializeSec);
            if (serializeHist != nullptr)
                serializeHist->observe(serializeSec);
            obs::FlightRecorder::record(id, obs::FlightPhase::Serialize,
                                        serializeSec);
        } else {
            payload = encodeTuneResponse(response, version);
        }
    } catch (const std::exception &e) {
        type = MsgType::Error;
        payload = encodeError(e.what());
        if (home.redErrors != nullptr)
            home.redErrors->increment();
    }
    // RED per event loop: rate counts every answered request, errors
    // counted above, duration is submit-to-completion.
    if (home.redRequests != nullptr)
        home.redRequests->increment();
    if (type != MsgType::Error && home.redDuration != nullptr)
        home.redDuration->observe(response.latencySec);
    counters.framesSent.fetch_add(1, std::memory_order_relaxed);

    // The connection is held weakly: if it closed while the request
    // was in flight, the frame is dropped.
    home.loop.runInLoop([conn, id, write_hist = writeHist,
                         frame = encodeFrame(type, id, payload, version)]() {
        const auto live = conn.lock();
        if (!live)
            return;
        const auto writeStart = std::chrono::steady_clock::now();
        live->send(frame);
        const double writeSec = elapsedSec(writeStart);
        if (write_hist != nullptr)
            write_hist->observe(writeSec);
        obs::FlightRecorder::record(id, obs::FlightPhase::Write, writeSec);
    });
    // Last: once released, stop() may return and destroy the server.
    release(1);
}

void
TuningServer::release(size_t n)
{
    // Notified under the lock, so stop() cannot return (and destroy
    // the condition variable) before the notify is done.
    std::lock_guard<std::mutex> lock(drainMutex);
    inFlight -= n;
    if (inFlight == 0)
        drained.notify_all();
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
    {
        // From here on a new batch is answered "server stopping".
        std::lock_guard<std::mutex> lock(drainMutex);
        if (stopping)
            return;
        stopping = true;
    }

    // 1. Stop accepting: drop the listener from loop 0, then close it.
    EventLoop &loop0 = loops[0]->loop;
    const int listen_fd = listener.fd();
    loop0.runInLoop([&loop0, listen_fd]() { loop0.unwatch(listen_fd); });

    // 2. Wait, while the loops still run, until every request already
    //    handed to the backend has queued its reply on its loop.
    {
        std::unique_lock<std::mutex> lock(drainMutex);
        drained.wait(lock, [this]() { return inFlight == 0; });
    }

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
