#include "analysis/rules.h"

namespace dac::analysis {

namespace {

/** Atomic member operations that default to seq_cst when bare. */
const char *const kAtomicOps[] = {
    "load",          "store",
    "exchange",      "fetch_add",
    "fetch_sub",     "fetch_and",
    "fetch_or",      "fetch_xor",
    "compare_exchange_weak",
    "compare_exchange_strong",
};

bool
isAtomicOp(const std::string &text)
{
    for (const char *op : kAtomicOps) {
        if (text == op)
            return true;
    }
    return false;
}

/**
 * dac-atomic-order: a bare `.load()` / `.store(v)` / RMW defaults to
 * seq_cst — the strongest (and slowest) order, and worse, an *implicit*
 * choice. On the tracer/metrics/pool hot paths every ordering decision
 * is deliberate (usually relaxed, acquire/release where a handoff
 * needs it), so every atomic operation must spell its memory_order
 * argument. The rule fires on any atomic-looking member call whose
 * argument list contains no `memory_order` token.
 */
class AtomicOrderRule final : public Rule
{
  public:
    const char *
    name() const override
    {
        return "dac-atomic-order";
    }

    const char *
    description() const override
    {
        return "atomic operations must pass an explicit std::memory_order";
    }

    void
    checkFile(const FileContext &ctx, std::vector<Finding> &out) const override
    {
        const auto &toks = ctx.tokens;
        for (size_t i = 1; i + 1 < toks.size(); ++i) {
            if (!toks[i].isPunct(".") && !toks[i].isPunct("->"))
                continue;
            const Token &method = toks[i + 1];
            if (method.kind != TokenKind::Identifier ||
                !isAtomicOp(method.text))
                continue;
            if (i + 2 >= toks.size() || !toks[i + 2].isPunct("("))
                continue;
            const size_t open = i + 2;
            const size_t close = matchingClose(toks, open);
            if (close >= toks.size())
                continue;
            bool ordered = false;
            for (size_t j = open + 1; j < close; ++j) {
                if (toks[j].kind == TokenKind::Identifier &&
                    toks[j].text.find("memory_order") !=
                        std::string::npos) {
                    ordered = true;
                    break;
                }
            }
            if (ordered)
                continue;
            out.push_back(Finding{
                name(), ctx.file.path(), method.line, method.column,
                "." + method.text + "(...) relies on the implicit "
                "seq_cst default; pass an explicit std::memory_order "
                "(relaxed unless a handoff needs more)"});
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeAtomicOrderRule()
{
    return std::make_unique<AtomicOrderRule>();
}

} // namespace dac::analysis
