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
 *    batch, submitted to the backend with submitBatch();
 *  - a small reply pool waits on the backend's futures (the only
 *    blocking waits in the layer) and hands encoded responses back to
 *    the owning loop, which coalesces every response of a batch into
 *    a single kernel write;
 *  - responses may interleave across batches; the request id is the
 *    correlation, not arrival order.
 *
 * Malformed framing (bad magic, unknown version, oversized length)
 * closes the connection; a well-framed but undecodable request
 * payload — or a well-framed frame of a type this build does not
 * know — gets an Error frame and the connection lives on.
 *
 * Observability (DESIGN.md §12): Stats and FlightDump frames are
 * answered inline on the loop thread; tune requests are stamped with
 * decode time and wire id so the backend can return a per-phase
 * latency breakdown, which the reply path completes with serialize
 * and write timings.
 */

#ifndef DAC_NET_SERVER_H
#define DAC_NET_SERVER_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "service/backend.h"
#include "service/thread_pool.h"

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
    /** Threads draining backend futures into response writes. */
    size_t replyThreads = 2;
    /** Frame payload ceiling enforced on ingress. */
    size_t maxFrameBytes = kMaxPayloadBytes;
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
        /** Requests answered with an inline error because the reply
         *  pool was saturated (the loop never blocks on it). */
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
     * Stop accepting, drain in-flight replies, and join every loop.
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
    /** Called by a connection with one drained batch (loop thread).
     *  `versions` holds the wire version each request arrived with;
     *  its reply is framed (and payload-encoded) with the same one. */
    void dispatchBatch(const std::shared_ptr<Connection> &conn,
                       std::vector<uint32_t> ids,
                       std::vector<uint8_t> versions,
                       std::vector<service::TuneRequest> requests);

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
    /** Blocks on backend futures so the loops never do. */
    std::unique_ptr<service::ThreadPool> replyPool;
    std::atomic<bool> started{false};
    std::atomic<bool> stopped{false};
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
