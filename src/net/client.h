/**
 * @file
 * Blocking client for the DAC frame protocol: one TCP connection, a
 * synchronous request() call, and a pipelined batch call that writes
 * N frames back-to-back and collects the N responses by request id.
 *
 * Used by the load generator (bench_net_serving), the wire tests, and
 * the tuning_server demo clients. Deliberately simple: one thread per
 * Client, no internal locking.
 */

#ifndef DAC_NET_CLIENT_H
#define DAC_NET_CLIENT_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "conf/space.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "service/request.h"

namespace dac::net {

/** The server answered a request with an Error frame, or the
 *  connection/protocol broke mid-call. */
struct RpcError : std::runtime_error
{
    explicit RpcError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

class Client
{
  public:
    /**
     * Connect to a frame server; retries briefly while the port is
     * not yet listening. fatalError() when it never comes up.
     *
     * @param space The config space responses decode against
     *              (defaults to the Spark space every DAC server
     *              speaks today).
     */
    Client(const std::string &host, uint16_t port,
           const conf::ConfigSpace &space = conf::ConfigSpace::spark(),
           double timeout_sec = 30.0);

    /**
     * Send one request and block for its response.
     *
     * Trace context rides the wire: with tracing enabled, the call
     * opens a "net.client.request" span and (unless the caller set
     * one) sends its span id as the request's trace id, so the
     * server-side span tree parents under this span in one stitched
     * trace. A request with `sampled` false records nothing on either
     * side.
     */
    [[nodiscard]] service::TuneResponse
    request(const service::TuneRequest &request);

    /**
     * Pipeline a batch: write every request in one buffer (the server
     * sees them in one readiness cycle — wire-level batching), then
     * collect responses and return them in request order whatever
     * order they arrived in. With tracing enabled, a
     * "net.client.batch" span covers the whole call, and each item
     * gets its own "net.client.request" span (and trace id) under it.
     */
    [[nodiscard]] std::vector<service::TuneResponse>
    requestBatch(const std::vector<service::TuneRequest> &requests);

    /** Round-trip a Ping frame (transport health check). */
    void ping();

    /** Fetch a live stats snapshot (MsgType::Stats round trip). */
    [[nodiscard]] std::string
    stats(StatsFormat format = StatsFormat::Json);

    /** Fetch the server's flight-recorder dump of the last
     *  `window_sec` seconds (MsgType::FlightDump round trip). */
    [[nodiscard]] std::string flightDump(double window_sec = 30.0);

    /** Snapshot admin round trip (MsgType::Snapshot): inspect the
     *  server's persistence state or trigger a persist-now pass.
     *  Returns the server's JSON report; throws RpcError when the
     *  server runs without persistence. */
    [[nodiscard]] std::string
    snapshotAdmin(SnapshotOp op = SnapshotOp::Inspect);

    /** Close the connection (the destructor also does). */
    void close();

  private:
    /** Block until the frame answering `request_id` arrives. */
    Frame awaitFrame(uint32_t request_id);

    Socket socket;
    const conf::ConfigSpace *space;
    FrameDecoder decoder;
    double timeoutSec;
    uint32_t nextId = 1;
    /** Frames that arrived before their turn (pipelined reordering). */
    std::vector<Frame> parked;
};

} // namespace dac::net

#endif // DAC_NET_CLIENT_H
