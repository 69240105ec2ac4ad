#include "analysis/rules.h"

#include <algorithm>

#include "analysis/index.h"

namespace dac::analysis {

namespace {

/**
 * dac-enum-switch: a switch over a project enum must either cover
 * every enumerator or carry an explicit default together with a
 * NOLINT(dac-enum-switch) rationale. Without this, adding an
 * enumerator (a new MsgType, a new degradation reason) silently falls
 * into whatever the default does — the exact bug class the wire
 * protocol's version negotiation exists to prevent. The enum
 * definition and the switch usually live in different files; this is
 * a cross-TU check.
 */
class EnumSwitchRule final : public Rule
{
  public:
    const char *
    name() const override
    {
        return "dac-enum-switch";
    }

    const char *
    description() const override
    {
        return "enum switches cover every enumerator (or carry a "
               "NOLINT'd default)";
    }

    void
    checkProgram(const ProgramIndex &index,
                 std::vector<Finding> &out) const override
    {
        const auto &enums = index.enums();
        for (const FileSummary &file : index.files()) {
            for (const SwitchSite &sw : file.switches) {
                if (sw.enumName.empty())
                    continue;
                const auto it = enums.find(sw.enumName);
                if (it == enums.end())
                    continue;
                const EnumDef &def = it->second;
                std::string missing;
                size_t missingCount = 0;
                for (const std::string &enumerator : def.enumerators) {
                    if (std::find(sw.covered.begin(), sw.covered.end(),
                                  enumerator) != sw.covered.end())
                        continue;
                    missing += (missingCount == 0 ? "" : ", ") +
                        def.name + "::" + enumerator;
                    ++missingCount;
                }
                if (missingCount == 0)
                    continue;
                std::string message = "switch on " + def.name +
                    " (defined at " + def.file + ":" +
                    std::to_string(def.line) + ") covers " +
                    std::to_string(sw.covered.size()) + " of " +
                    std::to_string(def.enumerators.size()) +
                    " enumerators; missing: " + missing;
                message += sw.hasDefault
                    ? "; if the default is intentional, keep it and "
                      "add a NOLINT(dac-enum-switch) rationale"
                    : "; add the cases (there is no default either)";
                out.push_back(Finding{name(), sw.file, sw.line,
                                      sw.column, std::move(message)});
            }
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeEnumSwitchRule()
{
    return std::make_unique<EnumSwitchRule>();
}

} // namespace dac::analysis
