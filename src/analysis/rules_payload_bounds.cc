#include "analysis/rules.h"

#include <map>
#include <set>

#include "analysis/index.h"
#include "analysis/lexer.h"
#include "support/string_utils.h"

namespace dac::analysis {

namespace {

/** The rule applies to the wire layer only: src/net/ (and fixture
 *  paths rooted at net/). */
bool
isNetFile(const std::string &path)
{
    return path.find("src/net/") != std::string::npos ||
        startsWith(path, "net/");
}

/** Identifier names that read as a length/bounds quantity. */
bool
isLengthName(const std::string &ident)
{
    const std::string low = toLower(ident);
    return low.find("len") != std::string::npos ||
        low.find("size") != std::string::npos ||
        low.find("avail") != std::string::npos ||
        low.find("cap") != std::string::npos ||
        low.find("bytes") != std::string::npos ||
        low.find("remaining") != std::string::npos ||
        low.find("count") != std::string::npos;
}

bool
isRelational(const std::string &text)
{
    return text == "<" || text == ">" || text == "=" || text == "!";
}

/**
 * dac-payload-bounds: raw wire-payload bytes must never be indexed
 * without an in-function bounds guard. The checked path is the shared
 * ByteReader (support/bytes.h), whose accessors call need() before
 * every read; code that takes a `const uint8_t *` directly must show
 * a need()/DAC_ASSERT/length-comparison before the first subscript.
 * Payload-size literals (1 MiB in any spelling) must come from the
 * named frame ceiling, kMaxPayloadBytes, so the cap has exactly one
 * definition.
 */
class PayloadBoundsRule final : public Rule
{
  public:
    const char *
    name() const override
    {
        return "dac-payload-bounds";
    }

    const char *
    description() const override
    {
        return "wire-payload byte access is bounds-checked; size "
               "literals use kMaxPayloadBytes";
    }

    void
    checkProgram(const ProgramIndex &index,
                 std::vector<Finding> &out) const override
    {
        for (const FileSummary &file : index.files()) {
            if (!isNetFile(file.source.path()))
                continue;
            checkNetFile(file, out);
        }
    }

  private:
    void
    checkNetFile(const FileSummary &file, std::vector<Finding> &out) const
    {
        const std::vector<Token> &toks = file.tokens;

        // Attribute a line to the innermost containing function.
        const auto functionAt =
            [&](size_t line) -> const FunctionSummary * {
            const FunctionSummary *best = nullptr;
            for (const FunctionSummary &fn : file.functions) {
                if (fn.line <= line && line <= fn.bodyEndLine &&
                    (best == nullptr || fn.line >= best->line))
                    best = &fn;
            }
            return best;
        };

        // Pass 1: per function, the first bounds-guard position and
        // the declared byte-pointer/buffer names.
        std::map<const FunctionSummary *, size_t> guardAt;
        std::map<const FunctionSummary *, std::set<std::string>>
            bytePtrs;
        std::map<const FunctionSummary *, std::set<size_t>> declTokens;
        for (size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            const FunctionSummary *fn = functionAt(t.line);
            if (fn == nullptr)
                continue;
            const bool guard =
                (t.isIdent("need") && i + 1 < toks.size() &&
                 toks[i + 1].isPunct("(")) ||
                t.isIdent("DAC_ASSERT") ||
                (t.kind == TokenKind::Identifier && isLengthName(t.text) &&
                 i + 1 < toks.size() &&
                 isRelational(toks[i + 1].text)) ||
                (t.kind == TokenKind::Identifier && isLengthName(t.text) &&
                 i >= 1 && isRelational(toks[i - 1].text));
            if (guard)
                guardAt.try_emplace(fn, i);
            if (t.isIdent("uint8_t")) {
                size_t k = i + 1;
                bool pointer = false;
                while (k < toks.size() &&
                       (toks[k].isPunct("*") || toks[k].isIdent("const") ||
                        toks[k].isPunct("&"))) {
                    pointer = pointer || toks[k].isPunct("*");
                    ++k;
                }
                if (k < toks.size() &&
                    toks[k].kind == TokenKind::Identifier) {
                    const bool array = k + 1 < toks.size() &&
                        toks[k + 1].isPunct("[");
                    if (pointer || array) {
                        bytePtrs[fn].insert(toks[k].text);
                        declTokens[fn].insert(k);
                    }
                }
            }
        }

        // Pass 2: unchecked accesses and magic payload literals.
        std::set<std::string> flagged;
        for (size_t i = 0; i < toks.size(); ++i) {
            const Token &t = toks[i];
            const FunctionSummary *fn = functionAt(t.line);

            if (fn != nullptr && t.kind == TokenKind::Identifier) {
                const auto ptrs = bytePtrs.find(fn);
                const bool isPtr = ptrs != bytePtrs.end() &&
                    ptrs->second.count(t.text) != 0 &&
                    declTokens[fn].count(i) == 0;
                const bool access = isPtr && i + 1 < toks.size() &&
                    (toks[i + 1].isPunct("[") ||
                     toks[i + 1].isPunct("+"));
                if (access) {
                    const auto g = guardAt.find(fn);
                    const bool guarded =
                        g != guardAt.end() && g->second < i;
                    const std::string key =
                        fn->qualified + "/" + t.text;
                    if (!guarded && flagged.insert(key).second) {
                        out.push_back(Finding{
                            name(), file.source.path(), t.line,
                            t.column,
                            "unchecked access to wire-payload buffer "
                            "'" + t.text + "' in " + fn->qualified +
                                "; guard with a length check "
                                "(need()/DAC_ASSERT) first or read "
                                "through the checked ByteReader "
                                "(support/bytes.h)"});
                    }
                }
            }

            // 1 MiB payload-size literals in any spelling.
            const bool mibLiteral =
                (t.kind == TokenKind::Number &&
                 (t.text == "1048576" || t.text == "0x100000")) ||
                (t.kind == TokenKind::Number && t.text == "1" &&
                 i + 3 < toks.size() && toks[i + 1].isPunct("<") &&
                 toks[i + 2].isPunct("<") &&
                 toks[i + 3].kind == TokenKind::Number &&
                 toks[i + 3].text == "20");
            if (mibLiteral) {
                const std::string &raw = file.source.raw(t.line);
                if (raw.find("constexpr") != std::string::npos ||
                    raw.find("kMaxPayloadBytes") != std::string::npos)
                    continue;
                out.push_back(Finding{
                    name(), file.source.path(), t.line, t.column,
                    "magic payload-size literal; use the named frame "
                    "ceiling kMaxPayloadBytes (net/frame.h)"});
            }
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makePayloadBoundsRule()
{
    return std::make_unique<PayloadBoundsRule>();
}

} // namespace dac::analysis
