#include "analysis/rules.h"

namespace dac::analysis {

namespace {

/**
 * dac-span-pairing: a ScopedSpan or ParentScope constructed as a
 * temporary (`obs::ScopedSpan("x");`) is destroyed at the end of the
 * full expression, so the span covers nothing. Both must be named
 * stack objects.
 *
 * Token heuristic: the class name directly followed by `(` is a
 * constructor *call* unless the context says declaration — preceded by
 * `explicit`/`~`/`class`/`friend`/`::`-qualified member definition, or
 * the parenthesis opens a parameter list (first token `const` or the
 * class name itself, as in the deleted copy operations).
 */
class SpanPairingRule final : public Rule
{
  public:
    const char *
    name() const override
    {
        return "dac-span-pairing";
    }

    const char *
    description() const override
    {
        return "ScopedSpan/ParentScope must be named stack objects, "
               "never temporaries";
    }

    void
    checkFile(const FileContext &ctx, std::vector<Finding> &out) const override
    {
        const auto &toks = ctx.tokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            if (!toks[i].isIdent("ScopedSpan") &&
                !toks[i].isIdent("ParentScope"))
                continue;
            if (i + 1 >= toks.size() || !toks[i + 1].isPunct("("))
                continue; // named object, reference, or bare mention

            // `ScopedSpan::ScopedSpan(...)` is the constructor's own
            // definition, not a call.
            if (i >= 2 && toks[i - 1].isPunct("::") &&
                toks[i - 2].text == toks[i].text)
                continue;

            // Walk back over a `ns::` qualification chain.
            size_t p = i;
            while (p >= 2 && toks[p - 1].isPunct("::") &&
                   toks[p - 2].kind == TokenKind::Identifier)
                p -= 2;
            const Token *prev = p >= 1 ? &toks[p - 1] : nullptr;
            if (prev && prev->kind == TokenKind::Identifier &&
                (prev->text == "explicit" || prev->text == "class" ||
                 prev->text == "friend" || prev->text == "using"))
                continue;
            if (prev && (prev->isPunct("~") || prev->isPunct("::")))
                continue; // destructor / qualified member definition

            // Parameter lists start with `const` or the class name;
            // real constructor calls start with a string literal or a
            // value expression.
            const size_t open = i + 1;
            const size_t close = matchingClose(toks, open);
            if (close >= toks.size())
                continue;
            const Token *first = open + 1 < close ? &toks[open + 1]
                                                  : nullptr;
            if (first &&
                (first->isIdent("const") ||
                 first->isIdent(toks[i].text.c_str())))
                continue;

            const bool literalArg =
                first && first->kind == TokenKind::String;
            const bool statementContext = !prev ||
                prev->isPunct(";") || prev->isPunct("{") ||
                prev->isPunct("}") || prev->isPunct("(") ||
                prev->isPunct(",") || prev->isIdent("return") ||
                prev->isIdent("new");
            if (!literalArg && !statementContext)
                continue;

            out.push_back(Finding{
                name(), ctx.file.path(), toks[i].line, toks[i].column,
                toks[i].text + "(...) constructed as a temporary dies "
                "at the end of the expression; bind it to a named "
                "local (e.g. obs::" + toks[i].text + " span(...))"});
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeSpanPairingRule()
{
    return std::make_unique<SpanPairingRule>();
}

} // namespace dac::analysis
