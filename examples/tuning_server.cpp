/**
 * @file
 * The DAC tuning server binary: a thin main over net::TuningServer
 * serving a TuningService (the transport-agnostic backend) on TCP.
 *
 * Two modes:
 *
 *  - Demo (default): start the server on an ephemeral loopback port,
 *    play several clients over the real wire — including a pipelined
 *    batch the server drains in one readiness cycle — and print the
 *    responses, the per-response constraint warnings the protocol now
 *    carries, and the service/server status. This is what CI smokes.
 *  - Serve (--port=N): bind the given port and serve until SIGINT or
 *    SIGTERM, then drain and print the wire stats.
 *
 * Usage: tuning_server [threads] [--port=N] [--loops=N]
 *                      [--prometheus] [--trace-out=FILE]
 *                      [--flight-dir=DIR] [--snapshot-dir=DIR]
 *
 *   threads           service worker threads (0 = one per hw thread)
 *   --port=N          serve mode: bind 127.0.0.1:N until SIGINT/SIGTERM
 *   --loops=N         worker event loops (default 2; at least 1)
 *   --prometheus      also print the service metrics in Prometheus
 *                     text exposition format (what a real deployment
 *                     would serve on /metrics)
 *   --trace-out=FILE  record a Chrome trace of the whole client mix
 *                     to FILE (open in Perfetto) and print a span
 *                     summary table
 *   --flight-dir=DIR  write flight-recorder dumps into DIR: on
 *                     SIGUSR1 (serve mode), and automatically when a
 *                     request degrades (rate-limited)
 *   --snapshot-dir=DIR persist trained models into DIR
 *                     (persist/snapshot.h): restore the model cache
 *                     from it on startup (warm restart), save each
 *                     model right after its build, and persist the
 *                     whole cache on SIGTERM/SIGINT drain. A Snapshot
 *                     admin frame (dac_snap, Client::snapshotAdmin)
 *                     inspects the state or triggers a persist-now
 *                     pass.
 *
 * The server always publishes live stats: a Stats frame (or dac_top)
 * returns the full registry — RED metrics per event loop, per-phase
 * latency histograms, model-cache counters — as Prometheus text
 * or JSON.
 */

#include <csignal>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "conf/constraints.h"
#include "conf/diff.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/chrome_trace.h"
#include "obs/flight_recorder.h"
#include "obs/summary.h"
#include "obs/tracer.h"
#include "service/service.h"
#include "support/json.h"
#include "support/string_utils.h"
#include "support/table.h"
#include "support/units.h"

#include "flags.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;

void
onSignal(int)
{
    g_stop = 1;
}

void
onDumpSignal(int)
{
    g_dump = 1;
}

void
printServerStats(const dac::net::TuningServer::Stats &stats)
{
    std::cout << "wire: " << stats.connectionsAccepted
              << " connection(s), " << stats.framesReceived
              << " frame(s) in / " << stats.framesSent << " out, "
              << stats.requestsSubmitted << " request(s) in "
              << stats.batchesSubmitted << " batch(es) (max batch "
              << stats.maxBatch << "), " << stats.protocolErrors
              << " protocol error(s)\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dac;

    size_t threads = 4;
    size_t loops = 2;
    bool prometheus = false;
    bool serve = false;
    uint16_t port = 0;
    std::string trace_path;
    std::string flight_dir;
    std::string snapshot_dir;
    tools::FlagParser flags;
    flags.define("port", [&serve, &port](const std::string &v) {
        serve = true;
        return tools::FlagParser::parseNumber(v, port);
    });
    flags.bind("loops", &loops);
    flags.defineSwitch("prometheus", &prometheus);
    flags.bind("trace-out", &trace_path);
    flags.bind("flight-dir", &flight_dir);
    flags.bind("snapshot-dir", &snapshot_dir);
    const bool parsed = flags.parse(argc, argv);
    const std::vector<std::string> &positional = flags.positionals();
    if (!parsed || loops == 0 || positional.size() > 1 ||
        (positional.size() == 1 &&
         !tools::FlagParser::parseNumber(positional[0], threads))) {
        std::cerr << "usage: tuning_server [threads] [--port=N]"
                  << " [--loops=N] [--prometheus]"
                  << " [--trace-out=FILE]"
                  << " [--flight-dir=DIR]"
                  << " [--snapshot-dir=DIR]\n";
        return 1;
    }
    if (threads == 0) // the pool's "one per hardware thread"
        threads = std::thread::hardware_concurrency();

    if (!trace_path.empty()) {
        obs::setThreadName("main");
        obs::Tracer::instance().setEnabled(true);
    }

    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());

    // Refuse to serve from defaults that do not fit the cluster; every
    // tuned answer starts its search from this configuration.
    conf::validateOrDie(conf::Configuration(conf::ConfigSpace::spark()),
                        cluster::ClusterSpec::paperTestbed(),
                        "service startup");

    service::ServiceOptions options;
    options.threads = threads;
    // Keep the demo snappy: a smaller training matrix and GA budget
    // than the paper's defaults (tuner.h documents the full settings).
    options.tuning.collect.datasetCount = 5;
    options.tuning.collect.runsPerDataset = 16;
    options.tuning.hm.firstOrder.maxTrees = 80;
    options.tuning.ga.maxGenerations = 30;
    options.snapshotDir = snapshot_dir;

    service::TuningService service(sim, options);

    if (!flight_dir.empty())
        obs::FlightRecorder::instance().setDumpDirectory(flight_dir);

    net::ServerOptions sopt;
    sopt.port = port;
    sopt.eventLoops = loops;
    // Publish the server's RED metrics and phase histograms into the
    // service registry so one Stats query covers the whole stack.
    sopt.metrics = &service.metrics();
    net::TuningServer server(service, sopt);
    server.setStatsProvider([&service](net::StatsFormat format) {
        service.refreshGauges();
        return format == net::StatsFormat::Prometheus
                   ? service.metrics().renderPrometheus()
                   : service.metrics().renderJson();
    });
    if (!snapshot_dir.empty()) {
        // A server without --snapshot-dir does not install a provider,
        // so Snapshot frames get an honest Error instead of a report
        // about persistence that is not happening.
        server.setSnapshotProvider(
            [&service, &snapshot_dir](net::SnapshotOp op) {
                std::ostringstream json;
                json << "{\"dir\":\"" << jsonEscape(snapshot_dir) << "\"";
                if (op == net::SnapshotOp::Persist) {
                    const auto io = service.snapshotNow();
                    json << ",\"op\":\"persist\",\"saved\":" << io.saved
                         << ",\"failed\":" << io.failed;
                } else {
                    const auto stats = service.cacheStats();
                    json << ",\"op\":\"inspect\",\"cachedModels\":"
                         << stats.size << ",\"capacity\":"
                         << stats.capacity;
                }
                json << "}";
                return json.str();
            });
    }
    server.start();

    std::cout << "tuning service up: " << threads << " worker(s), "
              << loops << " event loop(s), model cache capacity "
              << options.modelCacheCapacity << ", listening on "
              << sopt.host << ":" << server.port() << "\n\n";

    if (serve) {
        // Serve mode: run until asked to stop, then drain cleanly.
        struct sigaction action = {};
        action.sa_handler = onSignal;
        sigaction(SIGINT, &action, nullptr);
        sigaction(SIGTERM, &action, nullptr);
        struct sigaction dumpAction = {};
        dumpAction.sa_handler = onDumpSignal;
        sigaction(SIGUSR1, &dumpAction, nullptr);
        while (g_stop == 0) {
            if (g_dump != 0) {
                g_dump = 0;
                // Signal handlers only set the flag; the dump itself
                // (allocation, file I/O) runs here on the main thread.
                const auto path =
                    obs::FlightRecorder::instance().requestDump(
                        "sigusr1");
                if (path.empty())
                    std::cerr << "flight dump skipped (no --flight-dir"
                              << " or rate-limited)\n";
                else
                    std::cout << "flight dump written: " << path
                              << "\n";
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        std::cout << "signal received; draining\n";
        server.stop();
        if (!snapshot_dir.empty()) {
            // Persist the warm cache before the process dies so the
            // next start answers its first requests from snapshots.
            const auto io = service.snapshotNow();
            std::cout << "snapshots: " << io.saved << " model(s) -> "
                      << snapshot_dir;
            if (io.failed != 0)
                std::cout << " (" << io.failed << " failed)";
            std::cout << "\n";
        }
        printServerStats(server.stats());
        std::cout << service.statusReport();
        service.shutdown();
        std::cout << "\nserver drained and shut down.\n";
        return 0;
    }

    // Demo mode: the client mix, played over the real wire. The first
    // two clients pipeline identical TeraSort requests in one batch
    // (the server drains them in one readiness cycle and the backend
    // answers the duplicate from the first — "coalesced"), one asks at
    // a drifted size in the same datasize band (model-cache hit, fresh
    // GA search), and the rest are distinct jobs (cold builds).
    struct DemoClient
    {
        std::string name;
        service::TuneRequest request;
    };
    std::vector<DemoClient> clients;
    const auto makeRequest = [](const std::string &workload,
                                double size) {
        service::TuneRequest req;
        req.workload = workload;
        req.nativeSize = size;
        return req;
    };
    clients.push_back({"nightly-sort-a", makeRequest("TS", 40.0)});
    clients.push_back({"nightly-sort-b", makeRequest("TS", 40.0)});
    clients.push_back({"sort-grown-10pct", makeRequest("TS", 44.0)});
    clients.push_back({"log-wordcount", makeRequest("WC", 80.0)});
    clients.push_back({"user-clustering", makeRequest("KM", 200.0)});

    net::Client wire("127.0.0.1", server.port());
    wire.ping(); // transport health check before real traffic

    std::vector<service::TuneRequest> batch;
    batch.reserve(clients.size());
    for (const auto &client : clients)
        batch.push_back(client.request);
    const auto responses = wire.requestBatch(batch);

    printBanner(std::cout, "responses");
    TextTable table({"client", "job", "size", "predicted (s)",
                     "model err %", "model", "latency (s)"});
    for (size_t i = 0; i < clients.size(); ++i) {
        const auto &response = responses[i];
        const std::string source = response.coalesced ? "coalesced"
                                   : response.modelCacheHit
                                       ? "cache hit"
                                       : "built";
        table.addRow({clients[i].name, response.workload,
                      formatDouble(response.nativeSize, 1),
                      formatDouble(response.predictedTimeSec, 1),
                      formatDouble(response.modelErrorPct, 1), source,
                      formatDouble(response.latencySec, 2)});
        // Tuned configurations can violate cluster-level couplings the
        // per-parameter ranges cannot express; the response carries
        // the findings as typed fields over the wire.
        for (const auto &v : response.warnings) {
            std::cerr << "warning (" << clients[i].name
                      << "): " << v.constraint << ": " << v.message
                      << "\n";
        }
    }
    table.print(std::cout);

    // The v2 protocol returns where each request spent its time; show
    // the breakdown for the whole mix.
    printBanner(std::cout, "per-request phase breakdown (ms)");
    TextTable phaseTable({"client", "decode", "queue", "cache",
                          "build", "search", "serialize"});
    for (size_t i = 0; i < clients.size(); ++i) {
        const auto &response = responses[i];
        const auto ms = [&response](service::Phase phase) {
            return formatDouble(secToMsec(response.phaseSec(phase)),
                                2);
        };
        phaseTable.addRow({clients[i].name,
                           ms(service::Phase::Decode),
                           ms(service::Phase::Queue),
                           ms(service::Phase::CacheLookup),
                           ms(service::Phase::ModelBuild),
                           ms(service::Phase::Search),
                           ms(service::Phase::Serialize)});
    }
    phaseTable.print(std::cout);

    // What did the tuner actually change? Show the biggest moves of
    // the first response relative to the Spark defaults.
    printBanner(std::cout,
                "nightly-sort-a: top moves vs default config");
    const conf::Configuration defaults(conf::ConfigSpace::spark());
    const auto deltas =
        conf::diffConfigurations(defaults, responses[0].best);
    std::cout << conf::formatDiff(deltas, 8) << "\n";

    printBanner(std::cout, "service status");
    std::cout << service.statusReport();
    printServerStats(server.stats());

    if (prometheus) {
        printBanner(std::cout, "prometheus exposition");
        std::cout << service.metrics().renderPrometheus();
    }

    wire.close();
    server.stop();
    service.shutdown();

    if (!trace_path.empty()) {
        obs::Tracer::instance().setEnabled(false);
        const auto log = obs::Tracer::instance().snapshot();
        obs::writeChromeTrace(log, trace_path);
        printBanner(std::cout, "trace span summary");
        std::cout << "wrote " << log.events.size()
                  << " trace events -> " << trace_path << "\n";
        obs::summaryTable(log).print(std::cout);
    }

    std::cout << "\nservice drained and shut down.\n";
    return 0;
}
