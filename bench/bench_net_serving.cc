/**
 * @file
 * Closed-loop load generator for the wire serving layer (src/net/).
 *
 * Two phases:
 *
 *  1. Client sweep: N closed-loop clients (one TCP connection each,
 *     one request in flight each) against a live TuningServer for a
 *     fixed duration per point, reporting p50/p95/p99 latency and
 *     throughput; the saturation throughput is the sweep's maximum.
 *  2. Pipelined batches: the same traffic but B requests per wire
 *     write, exercising the one-readiness-cycle batch path end to end.
 *
 * The cost of always-on observability is measured by the stack
 * benchmark's traced runs instead (stackbench/, obs.overhead_pct),
 * which alternate obs-on and obs-off blocks within one process.
 *
 * The workload mix is Zipf-skewed (rank-1 traffic dominates), modeling
 * a scheduler that asks about the same few nightly jobs far more often
 * than the tail.
 *
 * Usage: bench_net_serving [--seconds=S] [--clients=A,B,C] [--batch=B]
 *                          [--connect=HOST:PORT] [--out=FILE]
 *
 *   --connect=HOST:PORT  drive an already-running server (CI's
 *                        net-smoke job) instead of an in-process one
 *   --out=FILE           write the latency/throughput results as JSON
 *
 * Exits non-zero when no request succeeds (smoke-test contract).
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "service/service.h"
#include "support/random.h"
#include "support/string_utils.h"
#include "support/table.h"
#include "support/units.h"

namespace {

using namespace dac;

std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> parts;
    size_t begin = 0;
    while (begin <= text.size()) {
        const size_t comma = text.find(',', begin);
        if (comma == std::string::npos) {
            parts.push_back(text.substr(begin));
            break;
        }
        parts.push_back(text.substr(begin, comma - begin));
        begin = comma + 1;
    }
    return parts;
}

/** One (workload, size) item of the request mix, Zipf-ranked. */
struct MixItem
{
    std::string workload;
    double nativeSize;
};

/** The serving mix: rank 1 dominates under Zipf. */
std::vector<MixItem>
servingMix()
{
    return {
        {"TS", 40.0},  {"WC", 80.0},  {"KM", 200.0}, {"TS", 44.0},
        {"PR", 120.0}, {"WC", 95.0},  {"KM", 230.0}, {"PR", 140.0},
    };
}

/** Zipf(s=1) sampler over ranks [0, n): P(rank) ~ 1 / (rank + 1). */
class ZipfSampler
{
  public:
    explicit ZipfSampler(size_t n)
    {
        cdf.reserve(n);
        double total = 0.0;
        for (size_t rank = 0; rank < n; ++rank) {
            total += 1.0 / static_cast<double>(rank + 1);
            cdf.push_back(total);
        }
        for (double &c : cdf)
            c /= total;
    }

    size_t
    draw(Rng &rng) const
    {
        const double u = rng.uniform();
        const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
        return it == cdf.end() ? cdf.size() - 1
                               : static_cast<size_t>(it - cdf.begin());
    }

  private:
    std::vector<double> cdf;
};

double
percentileMs(std::vector<double> &sorted_sec, double p)
{
    if (sorted_sec.empty())
        return 0.0;
    const size_t at = std::min(
        sorted_sec.size() - 1,
        static_cast<size_t>(p * static_cast<double>(sorted_sec.size())));
    return secToMsec(sorted_sec[at]);
}

/** One sweep point's outcome. */
struct SweepResult
{
    size_t clients = 0;
    size_t batch = 1;
    uint64_t ok = 0;
    uint64_t errors = 0;
    double seconds = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double maxMs = 0.0;

    [[nodiscard]] double
    throughput() const
    {
        return seconds > 0.0 ? static_cast<double>(ok) / seconds : 0.0;
    }
};

/**
 * Run `clients` closed-loop clients for `seconds`, each pipelining
 * `batch` Zipf-drawn requests per wire write.
 */
SweepResult
runSweepPoint(const std::string &host, uint16_t port, size_t clients,
              size_t batch, double seconds, uint64_t seed)
{
    const auto mix = servingMix();
    const ZipfSampler zipf(mix.size());
    std::vector<std::vector<double>> latencies(clients);
    std::vector<uint64_t> errors(clients, 0);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    for (size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c]() {
            Rng rng(combineSeed(seed, c));
            try {
                net::Client client(host, port);
                while (std::chrono::steady_clock::now() < deadline) {
                    std::vector<service::TuneRequest> requests;
                    requests.reserve(batch);
                    for (size_t b = 0; b < batch; ++b) {
                        const MixItem &item = mix[zipf.draw(rng)];
                        service::TuneRequest req;
                        req.workload = item.workload;
                        req.nativeSize = item.nativeSize;
                        req.seed = rng.raw();
                        requests.push_back(std::move(req));
                    }
                    const auto start = std::chrono::steady_clock::now();
                    try {
                        const auto responses =
                            client.requestBatch(requests);
                        const double sec =
                            std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - start)
                                .count();
                        for (size_t i = 0; i < responses.size(); ++i)
                            latencies[c].push_back(sec);
                    } catch (const net::RpcError &) {
                        errors[c] += batch;
                    }
                }
            } catch (const std::exception &) {
                // Connection never came up; count nothing and let the
                // zero-success check fail the run.
                errors[c] += 1;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    SweepResult out;
    out.clients = clients;
    out.batch = batch;
    out.seconds = seconds;
    std::vector<double> all;
    for (size_t c = 0; c < clients; ++c) {
        all.insert(all.end(), latencies[c].begin(), latencies[c].end());
        out.errors += errors[c];
    }
    out.ok = all.size();
    std::sort(all.begin(), all.end());
    out.p50Ms = percentileMs(all, 0.50);
    out.p95Ms = percentileMs(all, 0.95);
    out.p99Ms = percentileMs(all, 0.99);
    out.maxMs = all.empty() ? 0.0 : secToMsec(all.back());
    return out;
}

/** Tuner knobs of the in-process stack. */
service::ServiceOptions
benchServiceOptions()
{
    service::ServiceOptions sopt;
    sopt.threads =
        std::max<size_t>(4, std::thread::hardware_concurrency());
    // Load-gen scale: small training matrix, modest GA budget — the
    // wire is under test, not the tuner (tuner.h has the paper
    // settings).
    sopt.tuning.collect.datasetCount = 4;
    sopt.tuning.collect.runsPerDataset = 12;
    sopt.tuning.hm.firstOrder.maxTrees = 60;
    sopt.tuning.ga.maxGenerations = 20;
    sopt.parallelWithinRequest = false; // throughput over latency
    return sopt;
}

/** Warm every mix item's model band so a sweep measures serving, not
 *  collection campaigns. */
void
warmMix(const std::string &host, uint16_t port)
{
    net::Client warm(host, port);
    warm.ping();
    std::vector<service::TuneRequest> warmup;
    for (const MixItem &item : servingMix()) {
        service::TuneRequest req;
        req.workload = item.workload;
        req.nativeSize = item.nativeSize;
        req.seed = 7;
        warmup.push_back(std::move(req));
    }
    const auto responses = warm.requestBatch(warmup);
    if (responses.empty())
        std::cerr << "warmup returned nothing\n";
}

/** ns/op for a rate, the unit google-benchmark JSON carries. */
double
nsPerOp(double ops_per_sec)
{
    return ops_per_sec > 0.0 ? secToNs(1.0 / ops_per_sec) : 0.0;
}

/** One google-benchmark-shaped entry (check_bench_regression compares
 *  real_time across runs keyed by name). */
void
appendBenchEntry(std::ostream &out, bool &first, const std::string &name,
                 double real_time_ns, uint64_t iterations)
{
    if (real_time_ns <= 0.0)
        return; // a dead point would gate future runs on garbage
    out << (first ? "" : ",") << "\n    {\"name\": \"" << name
        << "\", \"run_type\": \"iteration\", \"iterations\": "
        << iterations << ", \"real_time\": " << real_time_ns
        << ", \"cpu_time\": " << real_time_ns
        << ", \"time_unit\": \"ns\"}";
    first = false;
}

void
writeJson(const std::string &path, const std::vector<SweepResult> &sweep,
          double saturation_rps)
{
    std::ofstream out(path);
    out << "{\n  \"sweep\": [\n";
    for (size_t i = 0; i < sweep.size(); ++i) {
        const SweepResult &r = sweep[i];
        out << "    {\"clients\": " << r.clients
            << ", \"batch\": " << r.batch << ", \"ok\": " << r.ok
            << ", \"errors\": " << r.errors
            << ", \"throughput_rps\": " << r.throughput()
            << ", \"p50_ms\": " << r.p50Ms
            << ", \"p95_ms\": " << r.p95Ms
            << ", \"p99_ms\": " << r.p99Ms
            << ", \"max_ms\": " << r.maxMs << "}"
            << (i + 1 < sweep.size() ? "," : "") << "\n";
    }
    out << "  ],\n";
    out << "  \"saturation_rps\": " << saturation_rps << ",\n";
    // google-benchmark-shaped view of the same numbers, the format
    // tools/check_bench_regression gates on in perf-smoke.
    out << "  \"benchmarks\": [";
    bool first = true;
    for (const SweepResult &r : sweep) {
        appendBenchEntry(out, first,
                         "serving/clients:" + std::to_string(r.clients) +
                             "/batch:" + std::to_string(r.batch),
                         nsPerOp(r.throughput()), r.ok);
    }
    out << "\n  ]\n";
    out << "}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    double seconds = 2.0;
    std::vector<size_t> clientCounts = {1, 4, 8};
    size_t pipelineBatch = 8;
    std::string connect;
    std::string outPath;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (startsWith(arg, "--seconds=")) {
            seconds = std::stod(arg.substr(std::string("--seconds=").size()));
        } else if (startsWith(arg, "--clients=")) {
            clientCounts.clear();
            for (const auto &part : splitCsv(
                     arg.substr(std::string("--clients=").size())))
                clientCounts.push_back(std::stoul(part));
        } else if (startsWith(arg, "--batch=")) {
            pipelineBatch =
                std::stoul(arg.substr(std::string("--batch=").size()));
        } else if (startsWith(arg, "--connect=")) {
            connect = arg.substr(std::string("--connect=").size());
        } else if (startsWith(arg, "--out=")) {
            outPath = arg.substr(std::string("--out=").size());
        } else {
            std::cerr << "usage: bench_net_serving [--seconds=S]"
                      << " [--clients=A,B,C] [--batch=B]"
                      << " [--connect=HOST:PORT] [--out=FILE]\n";
            return 1;
        }
    }

    printBanner(std::cout, "wire serving layer: closed-loop load");

    // Phase 1: the server. In-process by default; --connect drives one
    // that is already listening (CI's net-smoke job).
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    std::unique_ptr<sparksim::SparkSimulator> sim;
    std::unique_ptr<service::TuningService> service;
    std::unique_ptr<net::TuningServer> server;
    if (connect.empty()) {
        sim = std::make_unique<sparksim::SparkSimulator>(
            cluster::ClusterSpec::paperTestbed());
        service = std::make_unique<service::TuningService>(
            *sim, benchServiceOptions());
        server = std::make_unique<net::TuningServer>(
            *service, net::ServerOptions{});
        server->start();
        port = server->port();
    } else {
        const size_t colon = connect.rfind(':');
        if (colon == std::string::npos) {
            std::cerr << "--connect needs HOST:PORT\n";
            return 1;
        }
        host = connect.substr(0, colon);
        port = static_cast<uint16_t>(
            std::stoul(connect.substr(colon + 1)));
    }

    warmMix(host, port);
    std::cout << "warmup: mix models resident\n\n";

    // The sweep: closed-loop clients, one request per wire write.
    std::vector<SweepResult> sweep;
    TextTable table({"clients", "batch", "ok", "err", "req/s",
                     "p50 ms", "p95 ms", "p99 ms", "max ms"});
    double saturation = 0.0;
    uint64_t totalOk = 0;
    for (const size_t clients : clientCounts) {
        const SweepResult r =
            runSweepPoint(host, port, clients, 1, seconds, 11);
        saturation = std::max(saturation, r.throughput());
        totalOk += r.ok;
        table.addRow({std::to_string(r.clients), std::to_string(r.batch),
                      std::to_string(r.ok), std::to_string(r.errors),
                      formatDouble(r.throughput(), 1),
                      formatDouble(r.p50Ms, 2), formatDouble(r.p95Ms, 2),
                      formatDouble(r.p99Ms, 2),
                      formatDouble(r.maxMs, 2)});
        sweep.push_back(r);
    }

    // Phase 2: pipelined batches — B frames per write, drained by the
    // server in one readiness cycle and answered via submitBatch.
    if (pipelineBatch > 1) {
        const size_t clients =
            clientCounts.empty() ? 4 : clientCounts.back();
        const SweepResult r = runSweepPoint(host, port, clients,
                                            pipelineBatch, seconds, 13);
        saturation = std::max(saturation, r.throughput());
        totalOk += r.ok;
        table.addRow({std::to_string(r.clients), std::to_string(r.batch),
                      std::to_string(r.ok), std::to_string(r.errors),
                      formatDouble(r.throughput(), 1),
                      formatDouble(r.p50Ms, 2), formatDouble(r.p95Ms, 2),
                      formatDouble(r.p99Ms, 2),
                      formatDouble(r.maxMs, 2)});
        sweep.push_back(r);
    }
    table.print(std::cout);
    std::cout << "\nsaturation throughput: "
              << formatDouble(saturation, 1) << " req/s\n";

    if (server != nullptr) {
        const auto stats = server->stats();
        std::cout << "wire: " << stats.requestsSubmitted
                  << " request(s) in " << stats.batchesSubmitted
                  << " batch(es), max batch " << stats.maxBatch << ", "
                  << stats.protocolErrors << " protocol error(s)\n";
        server->stop();
        service->shutdown();
    }

    if (!outPath.empty()) {
        writeJson(outPath, sweep, saturation);
        std::cout << "wrote " << outPath << "\n";
    }

    if (totalOk == 0) {
        std::cerr << "no request succeeded\n";
        return 1;
    }
    return 0;
}
