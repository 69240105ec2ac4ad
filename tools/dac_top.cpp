/**
 * @file
 * dac_top: a `top`-style live view of a running tuning server.
 *
 * Polls the server's Stats frame (JSON format) on an interval and
 * renders, per tick:
 *
 *  - request throughput and degradation/rejection rates, computed
 *    from counter deltas between successive snapshots;
 *  - per-phase latency quantiles (decode, queue, cache lookup, model
 *    build, search, serialize, write) straight from the server's
 *    histograms;
 *  - per-event-loop RED rows (requests, errors, p95 duration);
 *  - one model-cache row (size, hits, misses, evictions, hit rate).
 *
 * Usage: dac_top --port=N [--host=H] [--interval=SEC] [--count=N]
 *                [--dump=FORMAT]
 *
 *   --port=N        server port (required)
 *   --host=H        server host (default 127.0.0.1)
 *   --interval=SEC  seconds between polls (default 2; positive and
 *                   finite)
 *   --count=N       exit after N snapshots (default 0 = run forever);
 *                   --count=1 prints one snapshot and exits, which is
 *                   what scripts and CI use
 *   --dump=FORMAT   print one raw stats body and exit instead of
 *                   rendering tables; FORMAT is `json`, `prometheus`,
 *                   or `flight` (the server's flight-recorder dump)
 *
 * Exits 0 on --count completion, 1 on connection loss or bad usage.
 */

#include <cmath>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "support/json.h"
#include "support/string_utils.h"
#include "support/table.h"
#include "support/units.h"

#include "flags.h"

namespace {

using dac::formatDouble;
using dac::JsonValue;

/** Counter snapshot for rate computation between ticks. */
struct CounterDeltas
{
    std::map<std::string, double> previous;

    /** Per-second rate of `name` since the previous tick (0 on the
     *  first tick or for unknown counters). */
    double ratePerSec(const JsonValue &counters, const std::string &name,
                      double interval_sec)
    {
        const double now = counters.numberAt(name, 0.0);
        const auto it = previous.find(name);
        const double before = it == previous.end() ? now : it->second;
        previous[name] = now;
        if (interval_sec <= 0.0)
            return 0.0;
        return (now - before) / interval_sec;
    }
};

/** One histogram row: "name  count  p50  p95  p99" in milliseconds. */
void
addHistogramRow(dac::TextTable &table, const JsonValue &histograms,
                const std::string &label, const std::string &name)
{
    if (!histograms.has(name))
        return;
    const JsonValue &h = histograms.at(name);
    const auto ms = [&h](const std::string &key) {
        return formatDouble(dac::secToMsec(h.numberAt(key, 0.0)), 3);
    };
    table.addRow({label,
                  formatDouble(h.numberAt("count", 0.0), 0),
                  ms("p50"), ms("p95"), ms("p99"), ms("max")});
}

void
renderSnapshot(const JsonValue &stats, CounterDeltas &deltas,
               double interval_sec)
{
    const JsonValue &counters = stats.at("counters");
    const JsonValue &gauges = stats.at("gauges");
    const JsonValue &histograms = stats.at("histograms");

    std::cout << "throughput: "
              << formatDouble(deltas.ratePerSec(
                                  counters, "requests.served",
                                  interval_sec),
                              1)
              << " req/s served, "
              << formatDouble(deltas.ratePerSec(counters,
                                                "requests.degraded",
                                                interval_sec),
                              1)
              << " degraded/s, "
              << formatDouble(deltas.ratePerSec(counters,
                                                "requests.rejected",
                                                interval_sec),
                              1)
              << " rejected/s  (totals: "
              << formatDouble(counters.numberAt("requests.served", 0.0),
                              0)
              << " served, "
              << formatDouble(
                     counters.numberAt("requests.degraded", 0.0), 0)
              << " degraded, "
              << formatDouble(
                     counters.numberAt("requests.rejected", 0.0), 0)
              << " rejected)\n";

    dac::TextTable phases(
        {"phase (ms)", "count", "p50", "p95", "p99", "max"});
    addHistogramRow(phases, histograms, "decode", "phase.decode");
    addHistogramRow(phases, histograms, "queue", "phase.queue");
    addHistogramRow(phases, histograms, "cache-lookup",
                    "phase.cache-lookup");
    addHistogramRow(phases, histograms, "model-build",
                    "phase.model-build");
    addHistogramRow(phases, histograms, "search", "phase.search");
    addHistogramRow(phases, histograms, "serialize", "phase.serialize");
    addHistogramRow(phases, histograms, "write", "phase.write");
    addHistogramRow(phases, histograms, "request (total)",
                    "latency.request");
    phases.print(std::cout);

    // Per-event-loop RED rows: rate from the counter delta, errors
    // total, duration quantiles from the loop's histogram.
    dac::TextTable loops(
        {"loop", "req/s", "errors", "p95 (ms)", "p99 (ms)"});
    for (size_t i = 0;; ++i) {
        const std::string base = "net.loop" + std::to_string(i);
        if (!histograms.has(base + ".duration"))
            break;
        const JsonValue &h = histograms.at(base + ".duration");
        loops.addRow(
            {std::to_string(i),
             formatDouble(deltas.ratePerSec(counters,
                                            base + ".requests",
                                            interval_sec),
                          1),
             formatDouble(counters.numberAt(base + ".errors", 0.0), 0),
             formatDouble(dac::secToMsec(h.numberAt("p95", 0.0)), 3),
             formatDouble(dac::secToMsec(h.numberAt("p99", 0.0)), 3)});
    }
    loops.print(std::cout);

    dac::TextTable cache(
        {"cached models", "hits", "misses", "evictions", "hit rate"});
    const auto count = [&gauges](const std::string &name) {
        return formatDouble(gauges.numberAt(name, 0.0), 0);
    };
    cache.addRow({count("cache.size"), count("cache.hits"),
                  count("cache.misses"), count("cache.evictions"),
                  formatDouble(gauges.numberAt("cache.hit_rate", 0.0),
                               3)});
    cache.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dac;

    std::string host = "127.0.0.1";
    uint16_t port = 0;
    double interval_sec = 2.0;
    size_t count = 0;
    std::string dump;
    tools::FlagParser flags;
    flags.bind("port", &port);
    flags.bind("host", &host);
    flags.bind("interval", &interval_sec);
    flags.bind("count", &count);
    flags.define("dump", [&dump](const std::string &v) {
        dump = v;
        return v == "json" || v == "prometheus" || v == "flight";
    });
    // A non-positive interval would poll back to back, and a
    // non-finite one would reach sleep_for.
    if (!flags.parse(argc, argv) || !flags.positionals().empty() ||
        !(std::isfinite(interval_sec) && interval_sec > 0.0)) {
        std::cerr << "usage: dac_top --port=N [--host=H]"
                  << " [--interval=SEC] [--count=N]"
                  << " [--dump=json|prometheus|flight]\n";
        return 1;
    }
    if (port == 0) {
        std::cerr << "dac_top: --port=N is required\n";
        return 1;
    }

    try {
        net::Client client(host, port);
        if (!dump.empty()) {
            // Raw single-shot mode for scripts: forward the body
            // exactly as the server rendered it.
            if (dump == "flight")
                std::cout << client.flightDump();
            else
                std::cout << client.stats(
                    dump == "prometheus"
                        ? net::StatsFormat::Prometheus
                        : net::StatsFormat::Json);
            return 0;
        }
        CounterDeltas deltas;
        for (size_t tick = 0; count == 0 || tick < count; ++tick) {
            if (tick > 0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(interval_sec));
            }
            const std::string body =
                client.stats(net::StatsFormat::Json);
            const JsonValue stats = parseJson(body);
            printBanner(std::cout,
                        host + ":" + std::to_string(port) +
                            " — snapshot " + std::to_string(tick + 1));
            renderSnapshot(stats, deltas, tick == 0 ? 0.0 : interval_sec);
            std::cout.flush();
        }
    } catch (const std::exception &error) {
        std::cerr << "dac_top: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
