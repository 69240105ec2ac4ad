/**
 * @file
 * The dac-lint rule interface. A Rule inspects one pre-lexed file
 * (checkFile), the merged whole-program index (checkProgram), or both,
 * and emits Findings; the Checker (checker.h) owns the registry,
 * applies NOLINT suppressions, and renders reports.
 */

#ifndef DAC_ANALYSIS_RULE_H
#define DAC_ANALYSIS_RULE_H

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/lexer.h"
#include "analysis/source.h"

namespace dac::analysis {

class ProgramIndex;

/** One diagnostic: a rule violated at a source position. */
struct Finding
{
    std::string rule;
    std::string file;
    size_t line = 0;
    size_t column = 0;
    std::string message;
};

/** Everything a rule may look at for one file. */
struct FileContext
{
    const SourceFile &file;
    const std::vector<Token> &tokens;
};

/**
 * A project-invariant check. Implementations are stateless: a check
 * may run over any number of files or indexes in any order. A rule
 * overrides the hook its invariant needs; the other stays empty.
 * Suppressions are applied later by the Checker.
 */
class Rule
{
  public:
    virtual ~Rule() = default;

    /** Stable rule id, e.g. "dac-atomic-order". */
    virtual const char *name() const = 0;

    /** One-line description for --list-rules and reports. */
    virtual const char *description() const = 0;

    /** Append findings for one file. */
    virtual void
    checkFile(const FileContext &, std::vector<Finding> &) const
    {
    }

    /** Append findings that need the whole program: the cross-TU
     *  call graph, lock graph, and enum/switch inventory. */
    virtual void
    checkProgram(const ProgramIndex &, std::vector<Finding> &) const
    {
    }
};

} // namespace dac::analysis

#endif // DAC_ANALYSIS_RULE_H
