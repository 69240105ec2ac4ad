/**
 * @file
 * The built-in dac-lint rule pack. Each factory returns one rule;
 * builtinRules() returns the full set in display order. The rules
 * encode this repository's concurrency/determinism invariants — see
 * DESIGN.md §8 for the per-file catalog and §13 for the flow-aware,
 * cross-TU rules, with the rationale behind each.
 */

#ifndef DAC_ANALYSIS_RULES_H
#define DAC_ANALYSIS_RULES_H

#include <memory>
#include <vector>

#include "analysis/rule.h"

namespace dac::analysis {

/** dac-span-pairing: ScopedSpan/ParentScope must be named objects. */
std::unique_ptr<Rule> makeSpanPairingRule();

/** dac-rng-discipline: only dac::Rng, split per worker in parallelFor. */
std::unique_ptr<Rule> makeRngDisciplineRule();

/** dac-atomic-order: every atomic op spells its memory order. */
std::unique_ptr<Rule> makeAtomicOrderRule();

/** dac-lock-hygiene: RAII locks only; no blocking under lock_guard. */
std::unique_ptr<Rule> makeLockHygieneRule();

/** dac-include-hygiene: respect the src/ layer order. */
std::unique_ptr<Rule> makeIncludeHygieneRule();

/** dac-units: no magic byte/time conversion factors. */
std::unique_ptr<Rule> makeUnitsRule();

/** dac-lock-order: the whole-program lock graph must be acyclic. */
std::unique_ptr<Rule> makeLockOrderRule();

/** dac-blocking-in-loop: nothing reachable from an event-loop
 *  callback or a seqlock writer section may block the thread. */
std::unique_ptr<Rule> makeBlockingInLoopRule();

/** dac-enum-switch: enum switches cover every enumerator. */
std::unique_ptr<Rule> makeEnumSwitchRule();

/** dac-payload-bounds: wire-payload buffer access is bounds-checked
 *  and payload-size literals come from the named frame ceiling. */
std::unique_ptr<Rule> makePayloadBoundsRule();

/** dac-nolint-naked: suppressions must name the rule they silence. */
std::unique_ptr<Rule> makeNolintNakedRule();

/** Every built-in rule, in display order. */
std::vector<std::unique_ptr<Rule>> builtinRules();

} // namespace dac::analysis

#endif // DAC_ANALYSIS_RULES_H
