/**
 * @file
 * stackbench: the tuning-stack benchmark command.
 *
 * Usage: stackbench --workload NAME [--seed N] [--seconds S]
 *                   [--trace 0|1]
 *
 *   --workload  cold-build, serve-serial, serve-unique or serve-repeat
 *               (README.md)
 *   --seed      workload seed; the same seed yields the same requests
 *   --seconds   length of the timed window
 *   --trace     0: end-to-end metrics; 1: per-layer metrics from a
 *               traced run (README.md)
 *
 * Prints the run context and a metric table, then, as the last line
 * of standard output, one JSON object: correct, attempted, failed and
 * the metrics with their units.
 */

#include <charconv>
#include <exception>
#include <iomanip>
#include <iostream>
#include <string>

#include "run.h"

namespace {

using namespace stackbench;

constexpr uint64_t kDefaultSeed = 2018;
constexpr double kDefaultSeconds = 45.0;
/** Problems printed one per line; the rest are only counted. */
constexpr size_t kProblemsShown = 20;

#if defined(__OPTIMIZE__) && defined(NDEBUG)
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

int
usage(const std::string &why)
{
    std::cerr << "stackbench: " << why << "\n"
              << "usage: stackbench --workload cold-build|serve-serial|"
                 "serve-unique|serve-repeat [--seed N] [--seconds S]"
                 " [--trace 0|1]\n";
    return 2;
}

/** Shortest decimal that reads back as exactly `value`. */
std::string
number(double value)
{
    char buf[64];
    const auto result = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, result.ptr);
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
printReport(const RunConfig &config, const Outcome &out)
{
    std::cout << "stackbench workload=" << config.workload
              << " seed=" << config.seed << " seconds=" << config.seconds
              << " trace=" << (config.traced ? 1 : 0)
              << " build=" << STACKBENCH_BUILD_TYPE << "\n";
    for (const std::string &line : out.context)
        std::cout << "context: " << line << "\n";
    std::cout << std::left << std::setw(30) << "metric" << std::setw(24)
              << "value" << std::setw(7) << "unit" << std::setw(9)
              << "samples" << "note\n";
    for (const Metric &m : out.metrics) {
        std::cout << std::setw(30) << m.name << ' ' << std::setw(23)
                  << number(m.value) << ' ' << std::setw(6) << m.unit << ' '
                  << std::setw(8) << m.samples << m.note << "\n";
    }
    std::cout << "attempted=" << out.attempted << " failed=" << out.failed
              << " checks=" << (out.problems.empty() ? "pass" : "FAIL")
              << "\n";
    for (size_t i = 0; i < out.problems.size(); ++i) {
        if (i == kProblemsShown) {
            std::cout << "problem: ... and " << out.problems.size() - i
                      << " more\n";
            break;
        }
        std::cout << "problem: " << out.problems[i] << "\n";
    }

    std::cout << "{\"correct\": " << (out.problems.empty() ? "true" : "false")
              << ", \"attempted\": " << out.attempted
              << ", \"failed\": " << out.failed << ", \"metrics\": {";
    for (size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        std::cout << (i == 0 ? "" : ", ") << jsonString(m.name)
                  << ": {\"value\": " << number(m.value)
                  << ", \"unit\": " << jsonString(m.unit) << "}";
    }
    std::cout << "}}" << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    if (!kOptimizedBuild) {
        std::cerr << "stackbench: refusing to measure an unoptimised build"
                  << " (" << STACKBENCH_BUILD_TYPE
                  << "); configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }

    RunConfig config;
    config.seed = kDefaultSeed;
    config.seconds = kDefaultSeconds;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        std::string value;
        if (const auto eq = arg.find('='); eq != std::string::npos) {
            value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            return usage("missing value for " + arg);
        }
        try {
            if (arg == "--workload")
                config.workload = value;
            else if (arg == "--seed")
                config.seed = std::stoull(value);
            else if (arg == "--seconds")
                config.seconds = std::stod(value);
            else if (arg == "--trace")
                config.traced = std::stoi(value) != 0;
            else
                return usage("unknown option " + arg);
        } catch (const std::exception &) {
            return usage("bad value for " + arg + ": " + value);
        }
    }
    if (!(config.seconds > 0.0))
        return usage("--seconds must be positive");

    Outcome (*run)(const RunConfig &) = nullptr;
    if (config.workload == "cold-build")
        run = runColdBuild;
    else if (config.workload == "serve-serial")
        run = runServeSerial;
    else if (config.workload == "serve-unique")
        run = runServeUnique;
    else if (config.workload == "serve-repeat")
        run = runServeRepeat;
    else
        return usage("unknown workload '" + config.workload + "'");

    try {
        const std::string host = hostContext();
        Outcome out = run(config);
        out.context.insert(out.context.begin(), host);
        printReport(config, out);
    } catch (const std::exception &error) {
        std::cerr << "stackbench: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
