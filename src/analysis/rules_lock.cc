#include "analysis/rules.h"

namespace dac::analysis {

namespace {

/** Mutex type names whose declared variables the rule tracks. */
const char *const kMutexTypes[] = {
    "mutex",
    "shared_mutex",
    "recursive_mutex",
    "timed_mutex",
    "recursive_timed_mutex",
};

bool
isMutexType(const std::string &text)
{
    for (const char *type : kMutexTypes) {
        if (text == type)
            return true;
    }
    return false;
}

/**
 * Calls that may block (or perform I/O) and therefore must not run
 * while a std::lock_guard is held: posting/joining pool work, waiting
 * on futures, sleeping, and logging. lock_guard cannot be released
 * early, so any of these inside its scope holds the lock across the
 * blocking call — the classic recipe for lock-ordering deadlocks
 * (a pool task that needs the same lock can never run) and for
 * latency cliffs on the hot path. Use unique_lock + explicit unlock,
 * or move the call out of the critical section.
 */
const char *const kBlockingCalls[] = {
    "parallelFor", "post",    "submit",  "shutdown",
    "sleep_for",   "sleep_until",        "join",
    "inform",      "warn",    "debug",
};

bool
isBlockingCall(const std::string &text)
{
    for (const char *call : kBlockingCalls) {
        if (text == call)
            return true;
    }
    return false;
}

/** True when the identifier smells like a future ("future", "fut"). */
bool
looksLikeFuture(const std::string &ident)
{
    const std::string lower = [&] {
        std::string s = ident;
        for (char &c : s)
            c = static_cast<char>(
                c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c);
        return s;
    }();
    return lower.find("future") != std::string::npos ||
           lower.find("fut") == 0;
}

/**
 * dac-lock-hygiene, two invariants:
 *
 * 1. No manual `.lock()`/`.unlock()`/`.try_lock()` on a variable
 *    declared as a std::mutex flavor — an exception between lock and
 *    unlock leaks the mutex forever. RAII guards only. (unique_lock's
 *    own unlock() is fine: the guard still releases on unwind.)
 *
 * 2. No blocking calls (pool posts, parallelFor, future waits,
 *    sleeps, logging I/O) inside the brace scope that a
 *    std::lock_guard opens.
 */
class LockHygieneRule final : public Rule
{
  public:
    const char *
    name() const override
    {
        return "dac-lock-hygiene";
    }

    const char *
    description() const override
    {
        return "RAII locks only; nothing blocking inside a "
               "lock_guard scope";
    }

    void
    checkFile(const FileContext &ctx, std::vector<Finding> &out) const override
    {
        const auto &toks = ctx.tokens;

        // Pass 1: names declared with a mutex type in this file
        // (members and locals alike; token-level, so one namespace of
        // names per file is plenty).
        std::vector<std::string> mutexes;
        for (size_t i = 0; i + 1 < toks.size(); ++i) {
            if (toks[i].kind == TokenKind::Identifier &&
                isMutexType(toks[i].text) &&
                toks[i + 1].kind == TokenKind::Identifier &&
                !(i >= 1 && toks[i - 1].isPunct("<")))
                mutexes.push_back(toks[i + 1].text);
        }

        for (size_t i = 0; i + 2 < toks.size(); ++i) {
            // Manual locking of a known mutex variable.
            if ((toks[i + 1].isIdent("lock") ||
                 toks[i + 1].isIdent("unlock") ||
                 toks[i + 1].isIdent("try_lock")) &&
                (toks[i].isPunct(".") || toks[i].isPunct("->")) &&
                i >= 1 && toks[i - 1].kind == TokenKind::Identifier &&
                i + 2 < toks.size() && toks[i + 2].isPunct("(")) {
                for (const auto &m : mutexes) {
                    if (toks[i - 1].text != m)
                        continue;
                    out.push_back(Finding{
                        name(), ctx.file.path(), toks[i + 1].line,
                        toks[i + 1].column,
                        "manual " + m + "." + toks[i + 1].text +
                            "(); use std::lock_guard or "
                            "std::unique_lock so unwinding releases "
                            "the mutex"});
                    break;
                }
            }

            // Blocking calls inside a lock_guard scope.
            if (toks[i].isIdent("lock_guard"))
                checkGuardScope(ctx, i, out);
        }
    }

  private:
    void
    checkGuardScope(const FileContext &ctx, size_t at,
                    std::vector<Finding> &out) const
    {
        const auto &toks = ctx.tokens;
        // Scope runs from the guard's trailing `;` to the `}` closing
        // the innermost block open at the declaration.
        size_t start = at;
        while (start < toks.size() && !toks[start].isPunct(";"))
            ++start;
        int depth = 1;
        for (size_t i = start + 1; i < toks.size() && depth > 0; ++i) {
            if (toks[i].isPunct("{")) {
                ++depth;
            } else if (toks[i].isPunct("}")) {
                --depth;
            } else if (toks[i].kind == TokenKind::Identifier &&
                       i + 1 < toks.size() && toks[i + 1].isPunct("(")) {
                const bool memberCall = i >= 1 &&
                    (toks[i - 1].isPunct(".") ||
                     toks[i - 1].isPunct("->"));
                const bool futureGet = toks[i].text == "get" &&
                    memberCall && i >= 2 &&
                    toks[i - 2].kind == TokenKind::Identifier &&
                    looksLikeFuture(toks[i - 2].text);
                if (isBlockingCall(toks[i].text) || futureGet) {
                    out.push_back(Finding{
                        name(), ctx.file.path(), toks[i].line,
                        toks[i].column,
                        "'" + toks[i].text + "(...)' may block or "
                        "perform I/O while the lock_guard declared on "
                        "line " + std::to_string(toks[at].line) +
                        " holds its mutex; move it outside the "
                        "critical section"});
                }
            }
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeLockHygieneRule()
{
    return std::make_unique<LockHygieneRule>();
}

} // namespace dac::analysis
