/**
 * @file
 * The per-file indexer: one walk over a SourceFile's tokens that
 * extracts the FileSummary (summary.h) — function definitions
 * with their call sites, RAII lock scopes, blocking operations,
 * lambdas (classified by the sink they are passed to), enum
 * definitions, switch coverage, and concurrency-relevant class
 * members.
 *
 * The walk is heuristic, not a parser: it rides the same blanked-token
 * stream the per-file rules read, skips preprocessor-directive lines
 * and `#if 0` regions, and recognizes the idioms this codebase actually
 * writes (out-of-class method definitions, ctor initializer lists,
 * template headers, nested classes). Anything it cannot classify it
 * ignores — the program rules are tuned so unresolved constructs mean
 * silence, not false positives.
 */

#ifndef DAC_ANALYSIS_INDEXER_H
#define DAC_ANALYSIS_INDEXER_H

#include <vector>

#include "analysis/lexer.h"
#include "analysis/summary.h"

namespace dac::analysis {

/** Summarize one scanned file from its tokens (lex(file)); the
 *  summary keeps both. */
[[nodiscard]] FileSummary summarizeFile(SourceFile file,
                                        std::vector<Token> tokens);

} // namespace dac::analysis

#endif // DAC_ANALYSIS_INDEXER_H
