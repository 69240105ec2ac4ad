/**
 * @file
 * Figure 13: per-stage execution times of KMeans under the default,
 * RFHOC and DAC configurations for datasets D1/D3/D5 (a-c), and GC
 * times default-vs-DAC and DAC-vs-RFHOC across D1..D5 (d-e).
 *
 * Paper results: DAC and RFHOC both crush the default; DAC pulls away
 * from RFHOC as the dataset grows, mostly by shrinking the iterative
 * stageC and GC time.
 */

#include "bench/common.h"
#include "dac/evaluation.h"
#include "sparksim/simulator.h"

namespace {

using namespace dac;

/** Per-group stage seconds for one configuration. */
std::map<std::string, double>
stageTimes(const sparksim::RunResult &r)
{
    std::map<std::string, double> out;
    for (const auto &s : r.stages)
        out[s.group] += s.timeSec;
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dac;
    const auto scale = bench::parseScale(argc, argv);
    bench::announce("Figure 13: KMeans per-stage times and GC", scale);

    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    const auto opt = bench::tunerOptions(scale);
    core::DacTuner dac_tuner(sim, opt);
    core::RfhocTuner rfhoc_tuner(sim, opt);
    core::DefaultTuner default_tuner;

    const auto &km = workloads::Registry::instance().byAbbrev("KM");
    const auto sizes = km.paperSizes();
    const std::vector<std::string> groups{"stageA", "stageB", "stageC",
                                          "stageD", "stageE"};

    // (a)-(c): stage breakdown at D1, D3, D5.
    for (int d : {0, 2, 4}) {
        const double size = sizes[static_cast<size_t>(d)];
        std::string title = "(";
        title += char('a' + d / 2);
        title += ") stage times at ";
        title += bench::datasetLabel(static_cast<size_t>(d) + 1);
        title += " (seconds)";
        printBanner(std::cout, title);
        TextTable table({"stage", "default", "RFHOC", "DAC"});
        const auto r_def = core::measureDetailed(
            sim, km, size, default_tuner.configFor(km, size), 3);
        const auto r_rfhoc = core::measureDetailed(
            sim, km, size, rfhoc_tuner.configFor(km, size), 3);
        const auto r_dac = core::measureDetailed(
            sim, km, size, dac_tuner.configFor(km, size), 3);
        const auto t_def = stageTimes(r_def);
        const auto t_rfhoc = stageTimes(r_rfhoc);
        const auto t_dac = stageTimes(r_dac);
        for (const auto &g : groups) {
            table.addRow({g, formatDouble(t_def.at(g), 1),
                          formatDouble(t_rfhoc.at(g), 1),
                          formatDouble(t_dac.at(g), 1)});
        }
        table.addRow({"total", formatDouble(r_def.timeSec, 1),
                      formatDouble(r_rfhoc.timeSec, 1),
                      formatDouble(r_dac.timeSec, 1)});
        table.print(std::cout);
    }

    // (d)-(e): GC time across sizes.
    printBanner(std::cout, "(d)/(e) GC time (seconds)");
    TextTable gc({"dataset", "default", "RFHOC", "DAC"});
    bool dac_beats_default_gc = true;
    for (size_t d = 0; d < sizes.size(); ++d) {
        const double size = sizes[d];
        const auto r_def = core::measureDetailed(
            sim, km, size, default_tuner.configFor(km, size), 3);
        const auto r_rfhoc = core::measureDetailed(
            sim, km, size, rfhoc_tuner.configFor(km, size), 3);
        const auto r_dac = core::measureDetailed(
            sim, km, size, dac_tuner.configFor(km, size), 3);
        gc.addRow({bench::datasetLabel(d + 1),
                   formatDouble(r_def.gcTimeSec, 1),
                   formatDouble(r_rfhoc.gcTimeSec, 1),
                   formatDouble(r_dac.gcTimeSec, 1)});
        dac_beats_default_gc &= r_dac.gcTimeSec < r_def.gcTimeSec;
    }
    gc.print(std::cout);

    std::cout << "\npaper shape: stageC dominates; DAC cuts it hardest "
              << "(especially at D5), and slashes GC vs default -> "
              << (dac_beats_default_gc ? "OK" : "MISMATCH") << "\n";
    return 0;
}
