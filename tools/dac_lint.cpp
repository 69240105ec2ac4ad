/**
 * @file
 * dac-lint: the project-invariant static checker. Per-file rules and
 * whole-program rules (lock-order cycles, blocking calls reachable
 * from event loops, enum-switch coverage, payload bounds) run in one
 * pass over the given files. A thin argv wrapper over src/analysis
 * (see checker.h); all rule logic lives in the library so tests can
 * drive it directly.
 *
 * Usage:
 *   dac_lint [flags] <file-or-dir>...
 *
 * Flags:
 *   --format=text|json|sarif  report format (default text)
 *   --output=FILE        write the report to FILE instead of stdout
 *   --rule=NAME          run only the named rule (repeatable)
 *   --disable=NAME       drop one rule from the default set (repeatable)
 *   --jobs=N             check files over N threads (default 1;
 *                        0 = one per hardware thread)
 *   --list-rules         print the rule catalog and exit
 *
 * Exit status: 0 clean, 1 findings, 2 usage or I/O error.
 */

#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/checker.h"
#include "service/thread_pool.h"

#include "flags.h"

namespace {

int
usage()
{
    std::cerr
        << "usage: dac_lint [flags] <file-or-dir>...\n"
        << "  --format=text|json|sarif  report format (default text)\n"
        << "  --output=FILE       write the report to FILE\n"
        << "  --rule=NAME         run only the named rule (repeatable)\n"
        << "  --disable=NAME      drop one rule (repeatable)\n"
        << "  --jobs=N            check over N threads (0 = hardware)\n"
        << "  --list-rules        print the rule catalog and exit\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace dac;

    std::string format = "text";
    std::string outputPath;
    std::vector<std::string> only;
    std::vector<std::string> disabled;
    size_t jobs = 1;
    bool listRules = false;

    tools::FlagParser flags;
    flags.bind("format", &format);
    flags.bind("output", &outputPath);
    flags.bind("rule", &only);
    flags.bind("disable", &disabled);
    flags.bind("jobs", &jobs);
    flags.defineSwitch("list-rules", &listRules);
    if (!flags.parse(argc, argv))
        return usage();
    if (format != "text" && format != "json" && format != "sarif")
        return usage();

    try {
        analysis::Checker checker;
        if (listRules) {
            for (const auto &rule : checker.ruleNames())
                std::cout << rule << "  " << checker.describe(rule)
                          << "\n";
            return 0;
        }
        if (flags.positionals().empty())
            return usage();
        if (!only.empty())
            checker.enableOnly(only);
        for (const auto &rule : disabled)
            checker.disable(rule);

        std::unique_ptr<service::ThreadPool> pool;
        if (jobs != 1)
            pool = std::make_unique<service::ThreadPool>(jobs);

        const analysis::LintReport report =
            checker.run(flags.positionals(), pool.get());
        std::string rendered;
        if (format == "json")
            rendered = analysis::renderJson(report);
        else if (format == "sarif")
            rendered = analysis::renderSarif(report);
        else
            rendered = analysis::renderText(report);
        if (outputPath.empty()) {
            std::cout << rendered;
        } else {
            std::ofstream out(outputPath);
            if (!out) {
                std::cerr << "cannot write " << outputPath << "\n";
                return 2;
            }
            out << rendered;
        }
        return report.clean() ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "dac_lint: " << e.what() << "\n";
        return 2;
    }
}
