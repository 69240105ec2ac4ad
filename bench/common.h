/**
 * @file
 * Shared infrastructure for the benchmark harness. Each bench binary
 * regenerates one table or figure of the paper at a documented scale:
 * the default is sized for a single-core container; pass --full for
 * paper scale (ntrain = 2000, nt = 3600, ...). See EXPERIMENTS.md.
 */

#ifndef DAC_BENCH_COMMON_H
#define DAC_BENCH_COMMON_H

#include <cstring>
#include <iostream>
#include <string>

#include "dac/tuner.h"
#include "support/string_utils.h"
#include "support/table.h"
#include "workloads/registry.h"

namespace dac::bench {

/** Scale knobs shared by the benches. */
struct Scale
{
    bool full = false;
    /** Runs per dataset size (k); ntrain = 10 * k. */
    size_t runsPerDataset = 80;
    /** Boosting rounds budget (nt). */
    int maxTrees = 500;
    /** Held-out test points per program-input pair. */
    size_t testPoints = 120;
    /** Simulator repetitions when measuring a configuration. */
    int measureRuns = 3;
};

/** "D<n>", the paper's name for a program's n-th dataset size. */
inline std::string
datasetLabel(size_t n)
{
    std::string label = "D";
    label += std::to_string(n);
    return label;
}

/** Parse --full (and optional --k=N) from argv. */
inline Scale
parseScale(int argc, char **argv)
{
    Scale s;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--full") {
            s.full = true;
            s.runsPerDataset = 200; // ntrain = 2000, the paper's choice
            s.maxTrees = 3600;      // the paper's nt
            s.testPoints = 500;     // the paper's testing set size
            s.measureRuns = 5;
        } else if (startsWith(arg, "--k=")) {
            s.runsPerDataset = std::stoul(arg.substr(4));
        } else if (startsWith(arg, "--trees=")) {
            s.maxTrees = std::stoi(arg.substr(8));
        }
    }
    return s;
}

/** Announce the bench and its scale. */
inline void
announce(const std::string &what, const Scale &s)
{
    printBanner(std::cout, what);
    std::cout << "scale: " << (s.full ? "full (paper)" : "reduced")
              << "  ntrain=" << 10 * s.runsPerDataset
              << "  nt=" << s.maxTrees << "  (pass --full for paper "
              << "scale)\n\n";
}

/** Tuner options derived from the scale. */
inline core::AutoTuneOptions
tunerOptions(const Scale &s)
{
    core::AutoTuneOptions opt;
    opt.collect.datasetCount = 10;
    opt.collect.runsPerDataset = s.runsPerDataset;
    opt.hm.firstOrder.maxTrees = s.maxTrees;
    opt.hm.firstOrder.learningRate = 0.05;
    opt.hm.firstOrder.treeComplexity = 5;
    opt.hm.firstOrder.convergencePatience = s.full ? 300 : 120;
    opt.ga.populationSize = 50;
    opt.ga.maxGenerations = 100;
    opt.ga.mutationRate = 0.01;
    return opt;
}

/** The six paper programs, Table 1 order. */
inline const std::vector<std::unique_ptr<workloads::Workload>> &
allPrograms()
{
    return workloads::Registry::instance().all();
}

} // namespace dac::bench

#endif // DAC_BENCH_COMMON_H
