/**
 * @file
 * The dac-lint checker: owns the rule registry and runs every rule in
 * one pass. It reads and lexes each file once, runs the per-file
 * rules on those tokens, summarizes the file from the same tokens,
 * merges the summaries into one ProgramIndex for the program rules,
 * applies NOLINT suppressions, and renders reports as human-readable
 * text, machine-readable JSON (a SARIF-lite shape) or SARIF 2.1.0.
 * tools/dac_lint.cpp is a thin argv wrapper around this so every
 * behavior is unit-testable.
 *
 * A dac-nolint-naked finding is only silenced by a marker that names
 * it: a bare NOLINT cannot suppress the rule that exists to flag bare
 * NOLINTs.
 */

#ifndef DAC_ANALYSIS_CHECKER_H
#define DAC_ANALYSIS_CHECKER_H

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/rule.h"
#include "support/executor.h"

namespace dac::analysis {

/** Result of a run. */
struct LintReport
{
    /** Findings sorted by (file, line, column, rule). */
    std::vector<Finding> findings;
    /** Files examined. */
    size_t fileCount = 0;

    [[nodiscard]] bool clean() const { return findings.empty(); }
};

/**
 * A configured set of rules.
 */
class Checker
{
  public:
    /** Checker with every built-in rule enabled. */
    Checker();

    /** Names of all registered rules, in display order. */
    [[nodiscard]] std::vector<std::string> ruleNames() const;

    /** One-line description of a rule; fatalError on unknown name. */
    [[nodiscard]] const std::string &describe(const std::string &rule) const;

    /** Disable one rule; fatalError on unknown name. */
    void disable(const std::string &rule);

    /** Enable exactly this rule set (clears previous enablement). */
    void enableOnly(const std::vector<std::string> &rules);

    /** Check (path, text) buffers as one program (for tests). */
    [[nodiscard]] LintReport checkTexts(
        const std::vector<std::pair<std::string, std::string>> &files)
        const;

    /** Check every C++ source under the given files/directories as
     *  one program. Reading, lexing, the per-file rules and indexing
     *  are spread over `executor` when one is provided; the report is
     *  the same either way. */
    [[nodiscard]] LintReport run(const std::vector<std::string> &paths,
                                 Executor *executor = nullptr) const;

  private:
    struct Entry
    {
        std::unique_ptr<Rule> rule;
        std::string description;
        bool enabled = true;
    };

    /** Registry position of `rule`; fatalError on unknown name. */
    size_t indexOf(const std::string &rule) const;

    /** The one pass over `fileCount` files, file i from load(i). */
    LintReport check(size_t fileCount,
                     const std::function<SourceFile(size_t)> &load,
                     Executor *executor) const;

    std::vector<Entry> entries;
};

/**
 * All checkable files under the given paths: directories are walked
 * recursively for .h/.hpp/.cc/.cpp/.cxx, skipping build trees and VCS
 * metadata; explicit file arguments are taken as-is. The list is
 * sorted for deterministic reports.
 */
[[nodiscard]] std::vector<std::string>
collectSourceFiles(const std::vector<std::string> &paths);

/** "file:line:col: warning: ... [rule]" lines plus a summary. */
[[nodiscard]] std::string renderText(const LintReport &report);

/** SARIF-lite JSON: tool id, file count, and one object per finding. */
[[nodiscard]] std::string renderJson(const LintReport &report);

/** SARIF 2.1.0: one run, one result per finding (for CI upload). */
[[nodiscard]] std::string renderSarif(const LintReport &report);

} // namespace dac::analysis

#endif // DAC_ANALYSIS_CHECKER_H
