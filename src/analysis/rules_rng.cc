#include "analysis/rules.h"

namespace dac::analysis {

namespace {

/** Raw engines and seeds that bypass the deterministic dac::Rng. */
const char *const kForbiddenRandom[] = {
    "rand",          "srand",          "random_device",
    "mt19937",       "mt19937_64",     "minstd_rand",
    "minstd_rand0",  "ranlux24_base",  "ranlux48_base",
    "ranlux24",      "ranlux48",       "knuth_b",
    "default_random_engine",
};

/** Rng methods that mutate the engine state (draws + fork). */
const char *const kDrawMethods[] = {
    "uniform",   "uniformReal",     "uniformInt", "normal",
    "bernoulli", "lognormalFactor", "index",      "shuffle",
    "sampleIndices",               "raw",        "fork",
};

bool
among(const std::string &text, const char *const (&set)[13])
{
    for (const char *entry : set) {
        if (text == entry)
            return true;
    }
    return false;
}

bool
amongDraws(const std::string &text)
{
    for (const char *entry : kDrawMethods) {
        if (text == entry)
            return true;
    }
    return false;
}

/**
 * dac-rng-discipline, two invariants:
 *
 * 1. Outside support/random.*, no std::rand/random_device/raw standard
 *    engines — every stochastic component draws from a seeded dac::Rng
 *    or reproducibility (DESIGN.md §6) is gone.
 *
 * 2. Inside a parallelFor lambda, drawing from an Rng that the lambda
 *    captured is a data race *and* makes results depend on worker
 *    interleaving. Each worker must draw from its own stream: an Rng
 *    declared in the body, typically `auto rng = parent.splitStream(i)`
 *    (splitStream is const and safe to call on a captured parent).
 */
class RngDisciplineRule final : public Rule
{
  public:
    const char *
    name() const override
    {
        return "dac-rng-discipline";
    }

    const char *
    description() const override
    {
        return "seeded dac::Rng only; parallelFor bodies draw from "
               "per-worker splitStream()s";
    }

    void
    checkFile(const FileContext &ctx, std::vector<Finding> &out) const override
    {
        const std::string &path = ctx.file.path();
        const bool isRngImpl =
            path.find("support/random.") != std::string::npos;
        const auto &toks = ctx.tokens;

        for (size_t i = 0; i < toks.size(); ++i) {
            if (!isRngImpl && toks[i].kind == TokenKind::Identifier &&
                among(toks[i].text, kForbiddenRandom)) {
                out.push_back(Finding{
                    name(), path, toks[i].line, toks[i].column,
                    "raw random source '" + toks[i].text +
                        "'; use the explicitly seeded dac::Rng "
                        "(support/random.h)"});
            }
            if (toks[i].isIdent("parallelFor") && i + 1 < toks.size() &&
                toks[i + 1].isPunct("("))
                checkParallelForBody(ctx, i + 1, out);
        }
    }

  private:
    void
    checkParallelForBody(const FileContext &ctx, size_t open,
                         std::vector<Finding> &out) const
    {
        const auto &toks = ctx.tokens;
        const size_t close = matchingClose(toks, open);
        // The loop body is the first lambda in the argument list.
        size_t bodyOpen = toks.size();
        for (size_t i = open + 1; i < close; ++i) {
            if (toks[i].isPunct("[")) {
                const size_t captureEnd = matchingClose(toks, i);
                for (size_t j = captureEnd; j < close; ++j) {
                    if (toks[j].isPunct("{")) {
                        bodyOpen = j;
                        break;
                    }
                }
                break;
            }
        }
        if (bodyOpen >= toks.size())
            return;
        const size_t bodyClose = matchingClose(toks, bodyOpen);

        // Identifiers the body itself declares as generators: either
        // `Rng name...` or `auto name = ...` (the only way this
        // codebase materializes split streams).
        std::vector<std::string> local;
        for (size_t i = bodyOpen + 1; i + 1 < bodyClose; ++i) {
            if ((toks[i].isIdent("Rng") || toks[i].isIdent("auto")) &&
                toks[i + 1].kind == TokenKind::Identifier)
                local.push_back(toks[i + 1].text);
        }

        for (size_t i = bodyOpen + 1; i + 2 < bodyClose; ++i) {
            if (!toks[i].isPunct(".") ||
                toks[i + 1].kind != TokenKind::Identifier ||
                !amongDraws(toks[i + 1].text) ||
                !toks[i + 2].isPunct("("))
                continue;
            const Token &receiver = toks[i - 1];
            // `streams[w].uniform()` / `rng.splitStream(i).uniform()`
            // end in a bracket: the receiver is a derived per-worker
            // value, which is exactly the sanctioned pattern.
            if (receiver.isPunct("]") || receiver.isPunct(")"))
                continue;
            if (receiver.kind != TokenKind::Identifier)
                continue;
            bool declaredInBody = false;
            for (const auto &ident : local)
                declaredInBody |= ident == receiver.text;
            if (declaredInBody)
                continue;
            out.push_back(Finding{
                name(), ctx.file.path(), toks[i + 1].line,
                toks[i + 1].column,
                "'" + receiver.text + "." + toks[i + 1].text +
                    "(...)' draws from an Rng captured into a "
                    "parallelFor body; derive a per-worker stream "
                    "with splitStream(i) instead"});
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeRngDisciplineRule()
{
    return std::make_unique<RngDisciplineRule>();
}

} // namespace dac::analysis
