/**
 * @file
 * The wire server: a listener plus N worker event loops serving the
 * DAC frame protocol over TCP, in front of any service::TuningBackend.
 *
 * Threading model (DESIGN.md §11):
 *
 *  - the listener fd lives on loop 0; accepted connections are pinned
 *    round-robin to one loop each and never migrate, so per-connection
 *    state (decoder, write buffer) is single-threaded by construction;
 *  - frames drained from a connection in one readiness cycle form one
 *    batch, submitted to the backend with submitBatch() as one job
 *    per request;
 *  - a job's reply runs on whichever thread answers the request (a
 *    backend worker, or the loop itself for an inline answer): it
 *    encodes the response there and hands the frame to the owning
 *    loop with runInLoop, one write per reply. Nothing in the layer
 *    waits on the backend;
 *  - responses may interleave across and within batches; the request
 *    id is the correlation, not arrival order.
 *
 * Malformed framing (bad magic, unknown version, oversized length)
 * closes the connection; a well-framed but undecodable request
 * payload — or a well-framed frame of a type this build does not
 * know — gets an Error frame and the connection lives on.
 *
 * Every frame other than a tune request (Ping, Stats, FlightDump,
 * Snapshot, an unexpected type) and every undecodable tune payload is
 * answered inline on the loop thread through one path: decode,
 * render, append the reply frame, count it sent.
 *
 * Observability (DESIGN.md §12): tune requests are stamped with
 * decode time and wire id so the backend can return a per-phase
 * latency breakdown, which the reply path completes with serialize
 * and write timings.
 */

#ifndef DAC_NET_SERVER_H
#define DAC_NET_SERVER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "service/backend.h"

namespace dac::net {

class Connection;
enum class StatsFormat : uint8_t;  // protocol.h
enum class SnapshotOp : uint8_t;   // protocol.h

/** Server sizing and transport policy. */
struct ServerOptions
{
    /** Bind address; loopback by default (this is a demo-grade
     *  service, not an internet-facing one). */
    std::string host = "127.0.0.1";
    /** TCP port; 0 asks the kernel for a free one (see port()). */
    uint16_t port = 0;
    /** Worker event loops; connections are pinned round-robin. */
    size_t eventLoops = 2;
    /**
     * Registry the server publishes per-loop RED metrics (rate /
     * errors / duration) and serialize/write phase histograms into —
     * usually the backing TuningService's, so one Stats query covers
     * the whole stack. Null (the default) disables the recording and
     * its cost entirely; the registry must outlive the server.
     */
    obs::MetricsRegistry *metrics = nullptr;
};

/**
 * Epoll-based frame server over a TuningBackend.
 */
class TuningServer
{
  public:
    /** Wire-level accounting (all counters monotonic). */
    struct Stats
    {
        uint64_t connectionsAccepted = 0;
        uint64_t connectionsClosed = 0;
        uint64_t framesReceived = 0;
        uint64_t framesSent = 0;
        /** submitBatch calls (one per readiness cycle with requests). */
        uint64_t batchesSubmitted = 0;
        /** Tune requests handed to the backend. */
        uint64_t requestsSubmitted = 0;
        /** Largest single batch so far. */
        uint64_t maxBatch = 0;
        /** Frame/payload violations (each also closes or errors). */
        uint64_t protocolErrors = 0;
        /** Requests answered "server stopping" because they arrived
         *  after stop() began. */
        uint64_t repliesDegraded = 0;
    };

    TuningServer(service::TuningBackend &backend, ServerOptions options);

    /** stop()s if still running. */
    ~TuningServer();

    TuningServer(const TuningServer &) = delete;
    TuningServer &operator=(const TuningServer &) = delete;

    /** Bind, listen, and spawn the loops. fatalError() on bind
     *  failure. Call once. */
    void start();

    /** The bound TCP port (the kernel's pick when options.port == 0);
     *  valid after start(). */
    [[nodiscard]] uint16_t port() const;

    /**
     * Stop accepting, wait until every request already handed to the
     * backend has queued its reply, and join every loop. Requests
     * that arrive meanwhile are answered "server stopping".
     * Connections still open are closed. Idempotent. The backend is
     * not shut down — the server does not own it.
     */
    void stop();

    [[nodiscard]] Stats stats() const;

    /**
     * Hook rendering the MsgType::Stats reply. The callable runs on
     * event-loop threads and must be thread-safe; set it before
     * start(). Without one, the server falls back to rendering
     * ServerOptions::metrics directly (and answers Error when that is
     * null too).
     */
    void setStatsProvider(std::function<std::string(StatsFormat)> fn);

    /**
     * Hook answering MsgType::Snapshot admin frames (inspect the
     * persistence state / persist-now). Same contract as the stats
     * provider: runs on event-loop threads, must be thread-safe, set
     * before start(). Without one the server answers Error — a build
     * without persistence simply does not speak the frame.
     */
    void setSnapshotProvider(std::function<std::string(SnapshotOp)> fn);

  private:
    friend class Connection;

    /** One worker loop plus its pinned connections. */
    struct Loop
    {
        EventLoop loop;
        std::thread thread;
        /** Loop-thread-only ownership of pinned connections. */
        std::map<int, std::shared_ptr<Connection>> connections;
        // Per-loop RED metrics (null when ServerOptions::metrics is):
        // cached once at start() so the hot path never takes the
        // registry lock.
        obs::Counter *redRequests = nullptr;
        obs::Counter *redErrors = nullptr;
        obs::Histogram *redDuration = nullptr;
    };

    void acceptReady();
    /** Loop-thread-only: adopt an accepted socket on `loop`. */
    void adopt(Loop &loop, int fd);
    /** Called by a connection as it closes (loop thread). */
    void onConnectionClosed(Loop &loop, int fd);
    /** Called by a connection with one drained batch (loop thread):
     *  counts it in flight and hands it to the backend, or answers it
     *  "server stopping" once stop() has begun. */
    void dispatchBatch(Connection &conn,
                       std::vector<service::TuneJob> jobs);
    /** A job's reply, on the answering thread: encode the answer to
     *  request `id` with its wire `version`, queue the frame on
     *  `home`'s loop for `conn` (that send is the write phase), and
     *  release the request. */
    void reply(Loop &home, const std::weak_ptr<Connection> &conn,
               uint32_t id, uint8_t version,
               service::TuneResponse response, std::exception_ptr error);
    /** `n` requests left the backend; wakes stop() at zero. */
    void release(size_t n);

    /** Render a Stats reply (loop thread; see setStatsProvider). */
    [[nodiscard]] std::string renderStats(StatsFormat format) const;

    /** Render a Snapshot reply (loop thread); throws ProtocolError
     *  when no provider is installed. */
    [[nodiscard]] std::string renderSnapshot(SnapshotOp op) const;

    service::TuningBackend *backend;
    ServerOptions options;
    Socket listener;
    std::vector<std::unique_ptr<Loop>> loops;
    /** Round-robin pin cursor (listener handler only). */
    size_t nextLoop = 0;
    std::atomic<bool> started{false};
    std::mutex drainMutex; ///< guards inFlight and stopping
    std::condition_variable drained;
    /** Requests handed to the backend whose reply has not run. */
    size_t inFlight = 0;
    /** Set once stop() has begun. */
    bool stopping = false;
    std::function<std::string(StatsFormat)> statsProvider;
    std::function<std::string(SnapshotOp)> snapshotProvider;
    // Cached phase histograms (null without ServerOptions::metrics).
    obs::Histogram *serializeHist = nullptr;
    obs::Histogram *writeHist = nullptr;

    struct AtomicStats
    {
        std::atomic<uint64_t> connectionsAccepted{0};
        std::atomic<uint64_t> connectionsClosed{0};
        std::atomic<uint64_t> framesReceived{0};
        std::atomic<uint64_t> framesSent{0};
        std::atomic<uint64_t> batchesSubmitted{0};
        std::atomic<uint64_t> requestsSubmitted{0};
        std::atomic<uint64_t> maxBatch{0};
        std::atomic<uint64_t> protocolErrors{0};
        std::atomic<uint64_t> repliesDegraded{0};
    };
    mutable AtomicStats counters;
};

} // namespace dac::net

#endif // DAC_NET_SERVER_H
