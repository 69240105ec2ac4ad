#include "analysis/rules.h"

namespace dac::analysis {

namespace {

class NolintNakedRule final : public Rule
{
  public:
    const char *
    name() const override
    {
        return "dac-nolint-naked";
    }

    const char *
    description() const override
    {
        return "suppression comments must name the rule they silence";
    }

    void
    checkFile(const FileContext &ctx, std::vector<Finding> &out) const override
    {
        for (const NakedNolint &marker : ctx.file.nakedNolints()) {
            out.push_back(Finding{
                name(), ctx.file.path(), marker.line, 1,
                "bare " + marker.marker +
                    " silences every rule forever; name the rule(s) it "
                    "suppresses, e.g. " + marker.marker +
                    "(dac-lock-order), and say why in the comment"});
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeNolintNakedRule()
{
    return std::make_unique<NolintNakedRule>();
}

} // namespace dac::analysis
