/**
 * @file
 * Figure 12: (a) speedup of DAC over the default configuration for
 * all 30 program-input pairs; (b) execution time under DAC, RFHOC and
 * the expert approach.
 *
 * Paper results: DAC over default 30.4x average (up to 89x, geometric
 * mean 15.4x); geometric-mean speedups over expert 2.3x and over
 * RFHOC 1.5x, growing with dataset size.
 */

#include "bench/common.h"
#include "dac/evaluation.h"
#include "sparksim/simulator.h"
#include "support/statistics.h"

int
main(int argc, char **argv)
{
    using namespace dac;
    const auto scale = bench::parseScale(argc, argv);
    bench::announce("Figure 12: speedups of DAC over default, RFHOC "
                    "and expert (30 program-input pairs)", scale);

    sparksim::SparkSimulator sim(cluster::ClusterSpec::paperTestbed());
    const auto opt = bench::tunerOptions(scale);
    core::DacTuner dac_tuner(sim, opt);
    core::RfhocTuner rfhoc_tuner(sim, opt);
    core::DefaultTuner default_tuner;
    core::ExpertTuner expert_tuner(cluster::ClusterSpec::paperTestbed());

    TextTable table({"program", "D", "DAC (s)", "RFHOC (s)",
                     "expert (s)", "default (s)", "x default",
                     "x expert", "x RFHOC"});
    std::vector<double> over_default;
    std::vector<double> over_expert;
    std::vector<double> over_rfhoc;

    for (const auto &w : bench::allPrograms()) {
        size_t d = 1;
        for (double size : w->paperSizes()) {
            const auto c_dac = dac_tuner.configFor(*w, size);
            const auto c_rfhoc = rfhoc_tuner.configFor(*w, size);
            const auto c_def = default_tuner.configFor(*w, size);
            const auto c_exp = expert_tuner.configFor(*w, size);

            const int runs = scale.measureRuns;
            const double t_dac =
                core::measureTime(sim, *w, size, c_dac, runs, 42);
            const double t_rfhoc =
                core::measureTime(sim, *w, size, c_rfhoc, runs, 42);
            const double t_def =
                core::measureTime(sim, *w, size, c_def, runs, 42);
            const double t_exp =
                core::measureTime(sim, *w, size, c_exp, runs, 42);

            over_default.push_back(t_def / t_dac);
            over_expert.push_back(t_exp / t_dac);
            over_rfhoc.push_back(t_rfhoc / t_dac);
            table.addRow({w->abbrev(), bench::datasetLabel(d++),
                          formatDouble(t_dac, 1),
                          formatDouble(t_rfhoc, 1),
                          formatDouble(t_exp, 1),
                          formatDouble(t_def, 1),
                          formatDouble(t_def / t_dac, 1),
                          formatDouble(t_exp / t_dac, 2),
                          formatDouble(t_rfhoc / t_dac, 2)});
        }
    }
    table.print(std::cout);

    TextTable summary({"speedup of DAC over", "average", "geomean",
                       "max", "paper avg", "paper geomean"});
    summary.addRow({"default", formatDouble(mean(over_default), 1),
                    formatDouble(geomean(over_default), 1),
                    formatDouble(*std::max_element(over_default.begin(),
                                                   over_default.end()), 1),
                    "30.4", "15.4"});
    summary.addRow({"expert", formatDouble(mean(over_expert), 2),
                    formatDouble(geomean(over_expert), 2),
                    formatDouble(*std::max_element(over_expert.begin(),
                                                   over_expert.end()), 2),
                    "2.99", "2.3"});
    summary.addRow({"RFHOC", formatDouble(mean(over_rfhoc), 2),
                    formatDouble(geomean(over_rfhoc), 2),
                    formatDouble(*std::max_element(over_rfhoc.begin(),
                                                   over_rfhoc.end()), 2),
                    "1.6", "1.5"});
    printBanner(std::cout, "summary");
    summary.print(std::cout);

    std::cout << "\nshape checks: DAC > RFHOC > expert-or-default on "
              << "geomean -> "
              << (geomean(over_default) > geomean(over_expert) &&
                  geomean(over_expert) >= 1.0 &&
                  geomean(over_rfhoc) >= 1.0 ? "OK" : "MISMATCH")
              << "\n";
    return 0;
}
