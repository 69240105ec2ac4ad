/**
 * @file
 * Figure 14: TeraSort Stage2 execution time and GC time under the
 * default, RFHOC and DAC configurations across D1..D5 (the paper
 * plots log2 values; we print both).
 *
 * Paper results (stage2 seconds): default 1020..11880, RFHOC 19..420,
 * DAC 21..120 — DAC's advantage grows with dataset size, driven by
 * GC-time reduction.
 */

#include <cmath>

#include "bench/common.h"
#include "dac/evaluation.h"
#include "sparksim/simulator.h"

int
main(int argc, char **argv)
{
    using namespace dac;
    const auto scale = bench::parseScale(argc, argv);
    bench::announce("Figure 14: TeraSort Stage2 times and GC", scale);

    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    const auto opt = bench::tunerOptions(scale);
    core::DacTuner dac_tuner(sim, opt);
    core::RfhocTuner rfhoc_tuner(sim, opt);
    core::DefaultTuner default_tuner;

    const auto &ts = workloads::Registry::instance().byAbbrev("TS");

    TextTable stage2({"dataset", "default (s)", "RFHOC (s)", "DAC (s)",
                      "log2 def", "log2 RFHOC", "log2 DAC"});
    TextTable gc({"dataset", "default GC (s)", "RFHOC GC (s)",
                  "DAC GC (s)"});

    double ratio_d1 = 0.0;
    double ratio_d5 = 0.0;
    const auto sizes = ts.paperSizes();
    for (size_t d = 0; d < sizes.size(); ++d) {
        const double size = sizes[d];
        const auto r_def = core::measureDetailed(
            sim, ts, size, default_tuner.configFor(ts, size), 3);
        const auto r_rfhoc = core::measureDetailed(
            sim, ts, size, rfhoc_tuner.configFor(ts, size), 3);
        const auto r_dac = core::measureDetailed(
            sim, ts, size, dac_tuner.configFor(ts, size), 3);

        auto stage2_of = [](const sparksim::RunResult &r) {
            for (const auto &s : r.stages) {
                if (s.group == "stage2")
                    return s.timeSec;
            }
            return 0.0;
        };
        const double s_def = stage2_of(r_def);
        const double s_rfhoc = stage2_of(r_rfhoc);
        const double s_dac = stage2_of(r_dac);
        if (d == 0)
            ratio_d1 = s_def / s_dac;
        if (d + 1 == sizes.size())
            ratio_d5 = s_def / s_dac;

        stage2.addRow({bench::datasetLabel(d + 1),
                       formatDouble(s_def, 1), formatDouble(s_rfhoc, 1),
                       formatDouble(s_dac, 1),
                       formatDouble(std::log2(s_def), 2),
                       formatDouble(std::log2(s_rfhoc), 2),
                       formatDouble(std::log2(s_dac), 2)});
        gc.addRow({bench::datasetLabel(d + 1),
                   formatDouble(r_def.gcTimeSec, 1),
                   formatDouble(r_rfhoc.gcTimeSec, 1),
                   formatDouble(r_dac.gcTimeSec, 1)});
    }
    stage2.print(std::cout);
    printBanner(std::cout, "GC time");
    gc.print(std::cout);

    std::cout << "\npaper shape: Stage2 dominates; the default-vs-DAC "
              << "gap widens with dataset size (paper: ~49x at D1 to "
              << "~99x at D5) -> "
              << (ratio_d5 > ratio_d1 ? "OK" : "MISMATCH") << "\n";
    return 0;
}
