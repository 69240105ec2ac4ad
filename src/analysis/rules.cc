#include "analysis/rules.h"

namespace dac::analysis {

std::vector<std::unique_ptr<Rule>>
builtinRules()
{
    std::vector<std::unique_ptr<Rule>> rules;
    rules.push_back(makeSpanPairingRule());
    rules.push_back(makeRngDisciplineRule());
    rules.push_back(makeAtomicOrderRule());
    rules.push_back(makeLockHygieneRule());
    rules.push_back(makeIncludeHygieneRule());
    rules.push_back(makeUnitsRule());
    rules.push_back(makeLockOrderRule());
    rules.push_back(makeBlockingInLoopRule());
    rules.push_back(makeEnumSwitchRule());
    rules.push_back(makePayloadBoundsRule());
    rules.push_back(makeNolintNakedRule());
    return rules;
}

} // namespace dac::analysis
