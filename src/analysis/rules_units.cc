#include "analysis/rules.h"

namespace dac::analysis {

namespace {

/**
 * dac-units: a literal 1024 (or 1e6/1e9) used multiplicatively is a
 * hand-rolled unit conversion; support/units.h already names these
 * (KiB/MiB/GiB, msToSec, secToUsec). Magic factors drift — one file
 * says `* 1024 * 1024`, the next `* 1048576`, a third `* 1e6` meaning
 * something else entirely — and named constants are the fix. The rule
 * fires on the literals 1024/1024.0/1e6/1e9 adjacent to `*` or `/`;
 * plain values (array sizes, queue capacities, parameter bounds) are
 * untouched. support/units.h itself is exempt: it defines the names.
 */
class UnitsRule final : public Rule
{
  public:
    const char *
    name() const override
    {
        return "dac-units";
    }

    const char *
    description() const override
    {
        return "use support/units.h helpers instead of magic "
               "conversion factors";
    }

    void
    checkFile(const FileContext &ctx, std::vector<Finding> &out) const override
    {
        if (ctx.file.path().find("support/units.h") != std::string::npos)
            return;
        const auto &toks = ctx.tokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            if (toks[i].kind != TokenKind::Number)
                continue;
            const std::string &text = toks[i].text;
            const bool byteFactor = text == "1024" || text == "1024.0";
            const bool timeFactor = text == "1e6" || text == "1e9" ||
                text == "1E6" || text == "1E9";
            if (!byteFactor && !timeFactor)
                continue;
            const bool multiplicative =
                (i >= 1 && (toks[i - 1].isPunct("*") ||
                            toks[i - 1].isPunct("/"))) ||
                (i + 1 < toks.size() && (toks[i + 1].isPunct("*") ||
                                         toks[i + 1].isPunct("/")));
            if (!multiplicative)
                continue;
            out.push_back(Finding{
                name(), ctx.file.path(), toks[i].line, toks[i].column,
                std::string("magic conversion factor ") + text +
                    (byteFactor
                         ? "; use KiB/MiB/GiB from support/units.h"
                         : "; use the time helpers in "
                           "support/units.h (msToSec, secToUsec)")});
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeUnitsRule()
{
    return std::make_unique<UnitsRule>();
}

} // namespace dac::analysis
