#include "analysis/indexer.h"

#include <algorithm>

#include "analysis/lexer.h"
#include "support/string_utils.h"

namespace dac::analysis {

namespace {

bool
isControlKeyword(const std::string &t)
{
    return t == "if" || t == "for" || t == "while" || t == "switch" ||
        t == "return" || t == "catch" || t == "sizeof" ||
        t == "alignof" || t == "throw" || t == "new" || t == "delete" ||
        t == "static_cast" || t == "dynamic_cast" ||
        t == "reinterpret_cast" || t == "const_cast" ||
        t == "static_assert" || t == "decltype" || t == "noexcept" ||
        t == "operator" || t == "assert" || t == "defined";
}

bool
isGuardType(const std::string &t)
{
    return t == "lock_guard" || t == "unique_lock" ||
        t == "scoped_lock" || t == "shared_lock";
}

/** Member-declaration types the summaries care about. */
enum class MemberKind { None, Mutex, Cv, Thread };

MemberKind
memberKindOf(const std::string &t)
{
    if (t == "mutex" || t == "shared_mutex" || t == "recursive_mutex" ||
        t == "timed_mutex" || t == "recursive_timed_mutex")
        return MemberKind::Mutex;
    if (t == "condition_variable" || t == "condition_variable_any")
        return MemberKind::Cv;
    if (t == "thread" || t == "jthread")
        return MemberKind::Thread;
    return MemberKind::None;
}

bool
contains(const std::string &text, const std::string &needle)
{
    return text.find(needle) != std::string::npos;
}

/** The last `.`/`->` component of a receiver chain ("slot.seq" ->
 *  "seq"). */
std::string
lastComponent(const std::string &receiver)
{
    const size_t at = receiver.find_last_of(".>");
    return at == std::string::npos ? receiver : receiver.substr(at + 1);
}

/**
 * The whole per-file walk. One instance per summarizeFile() call;
 * `toks` holds the file's tokens with preprocessor-directive lines and
 * `#if 0` regions dropped.
 */
struct Walker
{
    const SourceFile &file;
    std::vector<Token> toks;
    FileSummary &out;

    Walker(const SourceFile &f, const std::vector<Token> &tokens,
           FileSummary &o)
        : file(f), out(o)
    {
        for (const Token &t : tokens) {
            if (file.ppDirective(t.line) || file.inDisabledRegion(t.line))
                continue;
            toks.push_back(t);
        }
    }

    // ---- small token utilities ------------------------------------

    bool tokIs(size_t i, const char *text) const
    {
        return i < toks.size() && toks[i].text == text;
    }

    bool ident(size_t i) const
    {
        return i < toks.size() && toks[i].kind == TokenKind::Identifier;
    }

    /** Matching close for toks[open]; clamps to toks.size(). */
    size_t close(size_t open) const { return matchingClose(toks, open); }

    /** Skip a balanced `<...>` group starting at `i`; returns the
     *  index after the closing `>` (or i+1 when not an open angle). */
    size_t skipAngles(size_t i) const
    {
        if (!tokIs(i, "<"))
            return i + 1;
        int depth = 0;
        for (size_t j = i; j < toks.size(); ++j) {
            if (toks[j].isPunct("<"))
                ++depth;
            else if (toks[j].isPunct(">") && --depth == 0)
                return j + 1;
            else if (toks[j].isPunct(";") || toks[j].isPunct("{"))
                break; // not a template argument list after all
        }
        return i + 1;
    }

    /** Index of the opener matching the `)`/`]`/`}` at closeIdx,
     *  scanning backwards; returns closeIdx when unbalanced. */
    size_t backwardMatch(size_t closeIdx) const
    {
        const std::string &closer = toks[closeIdx].text;
        const char *opener = closer == ")" ? "(" :
            closer == "]"                  ? "[" :
                                             "{";
        int depth = 0;
        for (size_t j = closeIdx + 1; j-- > 0;) {
            if (toks[j].text == closer &&
                toks[j].kind == TokenKind::Punct)
                ++depth;
            else if (toks[j].isPunct(opener) && --depth == 0)
                return j;
        }
        return closeIdx;
    }

    /** Receiver text of a member call: the expression left of the
     *  `.`/`->` at dotIdx ("ring.slots", "(*futures)[i]"). */
    std::string receiverText(size_t dotIdx) const
    {
        const size_t end = dotIdx; // exclusive
        size_t k = dotIdx;
        while (k > 0) {
            const Token &p = toks[k - 1];
            if (p.isPunct(")") || p.isPunct("]")) {
                const size_t open = backwardMatch(k - 1);
                if (open == k - 1)
                    break;
                k = open;
                continue;
            }
            if (p.kind == TokenKind::Identifier) {
                k = k - 1;
                if (k > 0 &&
                    (toks[k - 1].isPunct(".") ||
                     toks[k - 1].isPunct("->") ||
                     toks[k - 1].isPunct("::"))) {
                    k = k - 1;
                    continue;
                }
                break;
            }
            break;
        }
        std::string text;
        for (size_t j = k; j < end; ++j)
            text += toks[j].text;
        return text;
    }

    /** Join the texts of [b, e). */
    std::string spellRange(size_t b, size_t e) const
    {
        std::string text;
        for (size_t j = b; j < e && j < toks.size(); ++j)
            text += toks[j].text;
        return text;
    }

    // ---- scope walk (namespace / class bodies) --------------------

    void run() { walkScope(0, toks.size(), "", false); }

    void walkScope(size_t b, size_t e, const std::string &cls,
                   bool isClassBody)
    {
        size_t i = b;
        while (i < e) {
            const Token &t = toks[i];
            if (t.isIdent("namespace")) {
                size_t j = i + 1;
                while (j < e && !toks[j].isPunct("{") &&
                       !toks[j].isPunct(";") && !toks[j].isPunct("="))
                    ++j;
                if (j < e && toks[j].isPunct("{")) {
                    const size_t c = close(j);
                    walkScope(j + 1, std::min(c, e), cls, isClassBody);
                    i = c + 1;
                } else {
                    i = j + 1;
                }
                continue;
            }
            if (t.isIdent("template")) {
                i = skipAngles(i + 1);
                continue;
            }
            if (t.isIdent("enum")) {
                i = parseEnum(i, e);
                continue;
            }
            if (t.isIdent("class") || t.isIdent("struct")) {
                i = parseClass(i, e);
                continue;
            }
            if (t.isIdent("using") || t.isIdent("typedef") ||
                t.isIdent("friend")) {
                while (i < e && !toks[i].isPunct(";"))
                    ++i;
                ++i;
                continue;
            }
            if (isClassBody && t.kind == TokenKind::Identifier &&
                memberKindOf(t.text) != MemberKind::None &&
                recordMember(i, e, cls)) {
                ++i;
                continue;
            }
            if (t.kind == TokenKind::Identifier && i + 1 < e &&
                toks[i + 1].isPunct("(")) {
                size_t next = i;
                if (tryFunction(i, e, cls, isClassBody, next)) {
                    i = next;
                    continue;
                }
            }
            if (t.isPunct("{") || t.isPunct("(") || t.isPunct("[")) {
                i = close(i) + 1;
                continue;
            }
            ++i;
        }
    }

    /** `enum [class] Name [: type] { A, B = expr, ... };` */
    size_t parseEnum(size_t i, size_t e)
    {
        size_t j = i + 1;
        if (j < e && (toks[j].isIdent("class") || toks[j].isIdent("struct")))
            ++j;
        std::string name;
        if (j < e && toks[j].kind == TokenKind::Identifier) {
            name = toks[j].text;
            ++j;
        }
        while (j < e && !toks[j].isPunct("{") && !toks[j].isPunct(";"))
            ++j;
        if (j >= e || toks[j].isPunct(";"))
            return j + 1;
        const size_t c = close(j);
        EnumDef def;
        def.name = name;
        def.file = file.path();
        def.line = toks[i].line;
        for (size_t k = j + 1; k < c && k < e; ++k) {
            if (toks[k].kind == TokenKind::Identifier &&
                (toks[k - 1].isPunct("{") || toks[k - 1].isPunct(",")))
                def.enumerators.push_back(toks[k].text);
        }
        if (!def.name.empty() && !def.enumerators.empty())
            out.enums.push_back(std::move(def));
        return c + 1;
    }

    /** `class Name [final] [: bases] { ... };` (or a declaration). */
    size_t parseClass(size_t i, size_t e)
    {
        size_t j = i + 1;
        std::string name;
        if (j < e && toks[j].kind == TokenKind::Identifier &&
            !toks[j].isIdent("final")) {
            name = toks[j].text;
            ++j;
        }
        size_t k = j;
        while (k < e && !toks[k].isPunct("{") && !toks[k].isPunct(";") &&
               !toks[k].isPunct("(") && !toks[k].isPunct("="))
            ++k;
        if (k >= e || !toks[k].isPunct("{") || name.empty())
            return k + 1; // forward declaration / variable / template use
        const size_t c = close(k);
        out.classes.try_emplace(name, ClassInfo{name, {}, {}, {}});
        walkScope(k + 1, std::min(c, e), name, true);
        return c + 1;
    }

    /** Record a mutex/cv/thread member declaration at i; true when
     *  one was recognized. */
    bool recordMember(size_t i, size_t e, const std::string &cls)
    {
        const MemberKind kind = memberKindOf(toks[i].text);
        size_t k = i + 1;
        while (k < e &&
               (toks[k].isPunct(">") || toks[k].isPunct("*") ||
                toks[k].isPunct("&")))
            ++k;
        if (k >= e || toks[k].kind != TokenKind::Identifier)
            return false;
        const std::string &name = toks[k].text;
        if (k + 1 >= e ||
            !(toks[k + 1].isPunct(";") || toks[k + 1].isPunct("=") ||
              toks[k + 1].isPunct("{") || toks[k + 1].isPunct("[")))
            return false;
        ClassInfo &info = out.classes[cls];
        if (info.name.empty())
            info.name = cls;
        switch (kind) {
        case MemberKind::Mutex: info.mutexMembers.push_back(name); break;
        case MemberKind::Cv: info.cvMembers.push_back(name); break;
        case MemberKind::Thread: info.threadMembers.push_back(name); break;
        case MemberKind::None: return false;
        }
        return true;
    }

    // ---- function definitions -------------------------------------

    /**
     * toks[i] is an identifier followed by `(`. Classify it as a
     * function definition (summarize the body), a declaration (skip),
     * or neither. `next` receives the resume index; returns false when
     * the construct should fall through to generic handling.
     */
    bool tryFunction(size_t i, size_t e, const std::string &cls,
                     bool isClassBody, size_t &next)
    {
        std::string name = toks[i].text;
        if (isControlKeyword(name)) {
            next = close(i + 1) + 1;
            return true;
        }
        // Build the qualifier chain backwards: A::B::name.
        size_t first = i;
        std::string owner;
        while (first >= 2 && toks[first - 1].isPunct("::") &&
               toks[first - 2].kind == TokenKind::Identifier) {
            owner = toks[first - 2].text;
            first -= 2;
        }
        if (owner.empty() && isClassBody)
            owner = cls;
        if (first >= 1 && toks[first - 1].isPunct("~"))
            name = "~" + name;
        const size_t open = i + 1;
        const size_t argsClose = close(open);
        if (argsClose >= e)
            return false;

        // Trailer scan: declaration, definition, or not a function.
        size_t k = argsClose + 1;
        bool ctorInit = false;
        size_t bodyOpen = 0;
        while (k < e) {
            const Token &tk = toks[k];
            if (tk.isPunct("(") || tk.isPunct("[")) {
                k = close(k) + 1;
                continue;
            }
            if (tk.isPunct("{")) {
                if (ctorInit && k > 0 &&
                    toks[k - 1].kind == TokenKind::Identifier) {
                    k = close(k) + 1; // brace member-init in ctor list
                    continue;
                }
                bodyOpen = k;
                break;
            }
            if (tk.isPunct(";"))
                break; // declaration
            if (tk.isPunct(":")) {
                ctorInit = true;
                ++k;
                continue;
            }
            if (tk.isPunct(",") && !ctorInit)
                break; // variable initializer list
            if (tk.isPunct("="))
                break; // `= default` / `= delete` / variable init
            ++k;
        }
        if (bodyOpen == 0) {
            next = argsClose + 1;
            return true;
        }
        const size_t bodyClose = close(bodyOpen);

        FunctionSummary fn;
        fn.name = name;
        fn.owner = owner;
        fn.qualified = owner.empty() ? name : owner + "::" + name;
        fn.file = file.path();
        fn.line = toks[first].line;
        fn.bodyEndLine =
            bodyClose < toks.size() ? toks[bodyClose].line : toks.back().line;
        walkBody(bodyOpen + 1, std::min(bodyClose, e), fn);
        out.functions.push_back(std::move(fn));
        next = bodyClose + 1;
        return true;
    }

    // ---- function bodies ------------------------------------------

    struct ActiveLock
    {
        std::string id;
        std::string guardVar;
        int depth = 0;
    };

    std::vector<std::string>
    heldIds(const std::vector<ActiveLock> &active) const
    {
        std::vector<std::string> ids;
        ids.reserve(active.size());
        for (const ActiveLock &lock : active)
            ids.push_back(lock.id);
        return ids;
    }

    // Callee of the innermost open call paren, for lambda roles.
    struct ParenCtx
    {
        std::string callee;
        std::string receiver;
    };

    /** The role a lambda takes when handed to this call. */
    static LambdaRole
    roleForSink(const ParenCtx &sink)
    {
        const std::string &callee = sink.callee;
        if (callee == "runInLoop" || callee == "watch")
            return LambdaRole::LoopCallback;
        if (callee == "post" || callee == "tryPost" ||
            callee == "submit" || callee == "async" || callee == "defer")
            return LambdaRole::PoolTask;
        if (callee == "thread" || callee == "jthread" ||
            ((callee == "emplace_back" || callee == "push_back") &&
             (contains(toLower(sink.receiver), "worker") ||
              contains(toLower(sink.receiver), "thread"))))
            return LambdaRole::DetachedThread;
        return LambdaRole::Inline;
    }

    void walkBody(size_t b, size_t e, FunctionSummary &fn)
    {
        std::vector<ActiveLock> active;
        std::vector<std::string> localCvs;
        std::vector<std::string> guardVars;
        std::vector<ParenCtx> parens;
        // `auto task = [...]` lambdas, by variable name, so a later
        // `pool->post(std::move(task))` can retarget their role.
        std::map<std::string, size_t> lambdaVars;
        std::string pendingCallee;
        std::string pendingReceiver;
        size_t pendingAt = 0; // token index of the expected '('

        int depth = 0;
        size_t i = b;
        while (i < e) {
            const Token &t = toks[i];
            if (t.isPunct("{")) {
                ++depth;
                ++i;
                continue;
            }
            if (t.isPunct("}")) {
                std::erase_if(active, [&](const ActiveLock &lock) {
                    return lock.depth == depth;
                });
                --depth;
                ++i;
                continue;
            }
            if (t.isPunct("(")) {
                if (pendingAt == i)
                    parens.push_back({pendingCallee, pendingReceiver});
                else
                    parens.push_back({});
                ++i;
                continue;
            }
            if (t.isPunct(")")) {
                if (!parens.empty())
                    parens.pop_back();
                ++i;
                continue;
            }
            if (t.isPunct("[") && i > b) {
                std::string lamVar;
                if (toks[i - 1].isPunct("=") && i >= b + 2 &&
                    ident(i - 2))
                    lamVar = toks[i - 2].text;
                const size_t next = tryLambda(i, e, fn, parens.empty()
                                                  ? ParenCtx{}
                                                  : parens.back());
                if (next != 0) {
                    // The outermost lambda lands last (its body, and
                    // any lambdas inside it, were walked first).
                    if (!lamVar.empty() && !out.functions.empty())
                        lambdaVars[lamVar] = out.functions.size() - 1;
                    i = next;
                    continue;
                }
            }
            // A named lambda used as a call argument takes the role of
            // that call: `pool->post(std::move(task))` makes `task` a
            // pool task, severing its inline edge from the enclosing
            // function.
            if (t.kind == TokenKind::Identifier && !parens.empty() &&
                lambdaVars.count(t.text) != 0) {
                for (auto p = parens.rbegin(); p != parens.rend(); ++p) {
                    if (p->callee.empty() || p->callee == "move" ||
                        p->callee == "forward")
                        continue;
                    const LambdaRole role = roleForSink(*p);
                    if (role != LambdaRole::Inline)
                        retargetLambda(fn, lambdaVars[t.text], role);
                    break;
                }
            }
            if (t.isIdent("switch")) {
                parseSwitch(i, e, fn.qualified);
                ++i;
                continue;
            }
            if (t.kind == TokenKind::Identifier && isGuardType(t.text)) {
                const size_t next =
                    tryGuard(i, e, fn, depth, active, guardVars);
                if (next != 0) {
                    i = next;
                    continue;
                }
            }
            if ((t.isIdent("condition_variable") ||
                 t.isIdent("condition_variable_any")) &&
                ident(i + 1) && tokIs(i + 2, ";")) {
                localCvs.push_back(toks[i + 1].text);
                i += 3;
                continue;
            }
            if (t.kind == TokenKind::Identifier && i + 1 < e &&
                toks[i + 1].isPunct("(") &&
                !isControlKeyword(t.text) && !isGuardType(t.text)) {
                handleCall(i, fn, active, localCvs, guardVars,
                           pendingCallee, pendingReceiver);
                pendingAt = i + 1;
            }
            ++i;
        }
    }

    /**
     * toks[i] is `[` inside a body. When it opens a lambda literal,
     * summarize the lambda as its own function and return the index
     * after its body; 0 otherwise.
     */
    size_t tryLambda(size_t i, size_t e, FunctionSummary &fn,
                     const ParenCtx &sink)
    {
        const Token &prev = toks[i - 1];
        const bool introducer = prev.isPunct("(") || prev.isPunct(",") ||
            prev.isPunct("=") || prev.isIdent("return") ||
            prev.isPunct("{");
        if (!introducer)
            return 0;
        size_t k = close(i) + 1; // past the capture list
        if (k >= e)
            return 0;
        if (toks[k].isPunct("("))
            k = close(k) + 1; // parameter list
        while (k < e &&
               (toks[k].isIdent("mutable") || toks[k].isIdent("noexcept") ||
                toks[k].isPunct("->") || toks[k].isPunct("::") ||
                toks[k].isPunct("<") || toks[k].isPunct(">") ||
                toks[k].isPunct("*") || toks[k].isPunct("&") ||
                toks[k].kind == TokenKind::Identifier))
            ++k;
        if (k >= e || !toks[k].isPunct("{"))
            return 0;
        const size_t bodyOpen = k;
        const size_t bodyClose = close(bodyOpen);

        const LambdaRole role = roleForSink(sink);

        FunctionSummary lam;
        lam.name = "lambda@" + std::to_string(toks[i].line);
        lam.owner = fn.owner;
        lam.qualified = fn.qualified + "::" + lam.name;
        lam.file = file.path();
        lam.line = toks[i].line;
        lam.bodyEndLine = bodyClose < toks.size() ? toks[bodyClose].line
                                                  : toks.back().line;
        lam.isLambda = true;
        lam.role = role;
        lam.enclosing = fn.qualified;
        walkBody(bodyOpen + 1, std::min(bodyClose, e), lam);

        if (role == LambdaRole::Inline) {
            CallSite site;
            site.name = lam.name;
            site.qualifier = fn.qualified;
            site.line = toks[i].line;
            site.column = toks[i].column;
            fn.calls.push_back(std::move(site));
        }
        out.functions.push_back(std::move(lam));
        return bodyClose + 1;
    }

    /** Re-role the lambda at out.functions[lamIndex] and drop the
     *  inline call edge its enclosing function gained at creation. */
    void retargetLambda(FunctionSummary &fn, size_t lamIndex,
                        LambdaRole role)
    {
        FunctionSummary &lam = out.functions[lamIndex];
        lam.role = role;
        std::erase_if(fn.calls, [&](const CallSite &site) {
            return site.name == lam.name &&
                   site.qualifier == fn.qualified;
        });
    }

    /** `lock_guard<mx> g(expr[, expr...])` at i; returns the resume
     *  index, or 0 when not an acquisition. */
    size_t tryGuard(size_t i, size_t e, FunctionSummary &fn, int depth,
                    std::vector<ActiveLock> &active,
                    std::vector<std::string> &guardVars)
    {
        const std::string guardType = toks[i].text;
        size_t k = i + 1;
        if (tokIs(k, "<"))
            k = skipAngles(k);
        if (!ident(k))
            return 0; // a type mention, not a declaration
        const std::string guardVar = toks[k].text;
        const size_t guardLine = toks[k].line;
        const size_t guardCol = toks[k].column;
        if (k + 1 >= e ||
            !(toks[k + 1].isPunct("(") || toks[k + 1].isPunct("{")))
            return 0;
        const size_t argsOpen = k + 1;
        const size_t argsClose = close(argsOpen);
        guardVars.push_back(guardVar);

        // Split the top-level comma-separated arguments.
        std::vector<std::string> args;
        size_t argStart = argsOpen + 1;
        int inner = 0;
        for (size_t j = argsOpen + 1; j <= argsClose && j < e; ++j) {
            const Token &tk = toks[j];
            if (tk.isPunct("(") || tk.isPunct("[") || tk.isPunct("{") ||
                tk.isPunct("<"))
                ++inner;
            else if (tk.isPunct(")") || tk.isPunct("]") ||
                     tk.isPunct("}") || tk.isPunct(">"))
                --inner;
            if ((tk.isPunct(",") && inner == 0) ||
                (j == argsClose && inner < 0)) {
                if (j > argStart)
                    args.push_back(spellRange(argStart, j));
                argStart = j + 1;
            }
        }

        bool deferred = false;
        std::vector<std::string> ids;
        for (std::string arg : args) {
            if (contains(arg, "defer_lock")) {
                deferred = true;
                continue;
            }
            if (contains(arg, "adopt_lock") || contains(arg, "try_to_lock"))
                continue;
            while (!arg.empty() && (arg[0] == '*' || arg[0] == '&'))
                arg = arg.substr(1);
            if (startsWith(arg, "this->"))
                arg = arg.substr(6);
            if (arg.empty())
                continue;
            ids.push_back(fn.owner.empty() ? arg : fn.owner + "::" + arg);
        }
        if (!deferred) {
            const std::vector<std::string> held = heldIds(active);
            for (const std::string &id : ids) {
                LockAcquisition acq;
                acq.lockId = id;
                acq.guard = guardType;
                acq.line = guardLine;
                acq.column = guardCol;
                acq.locksHeld = held;
                fn.locks.push_back(std::move(acq));
                active.push_back({id, guardVar, depth});
            }
        }
        return argsClose + 1;
    }

    void handleCall(size_t i, FunctionSummary &fn,
                    std::vector<ActiveLock> &active,
                    const std::vector<std::string> &localCvs,
                    const std::vector<std::string> &guardVars,
                    std::string &pendingCallee,
                    std::string &pendingReceiver)
    {
        CallSite site;
        site.name = toks[i].text;
        site.line = toks[i].line;
        site.column = toks[i].column;
        site.locksHeld = heldIds(active);
        if (i >= 1 && toks[i - 1].isPunct("::")) {
            if (i >= 2 && toks[i - 2].kind == TokenKind::Identifier)
                site.qualifier = toks[i - 2].text;
            else
                site.globalScope = true;
        } else if (i >= 1 &&
                   (toks[i - 1].isPunct(".") || toks[i - 1].isPunct("->"))) {
            site.viaMember = true;
            site.receiver = receiverText(i - 1);
        }
        pendingCallee = site.name;
        pendingReceiver = site.receiver;

        // Early-release: guard.unlock() ends that guard's scope.
        if (site.name == "unlock" && site.viaMember) {
            std::erase_if(active, [&](const ActiveLock &lock) {
                return lock.guardVar == site.receiver;
            });
        }
        // Seqlock writer: a store through a member named `seq`.
        if (site.name == "store" && site.viaMember &&
            lastComponent(site.receiver) == "seq")
            fn.seqlockWriter = true;

        classifyBlocking(i, site, fn, localCvs, guardVars);
        fn.calls.push_back(std::move(site));
    }

    void classifyBlocking(size_t i, const CallSite &site,
                          FunctionSummary &fn,
                          const std::vector<std::string> &localCvs,
                          const std::vector<std::string> &guardVars)
    {
        const std::string low = toLower(site.receiver);
        const bool futureish = contains(low, "future") ||
            contains(low, "fut") || contains(low, "promise");
        std::string what;
        if (site.name == "sleep_for" || site.name == "sleep_until") {
            what = "this_thread::" + site.name;
        } else if (site.name == "connectTcp" || site.name == "writeAll" ||
                   site.name == "readWithTimeout") {
            what = "blocking socket op " + site.name;
        } else if (site.viaMember && site.name == "get" && futureish) {
            what = "future::get";
        } else if (site.viaMember &&
                   (site.name == "wait" || site.name == "wait_for" ||
                    site.name == "wait_until")) {
            // cv.wait(lock, ...): the first argument names a guard.
            std::string firstArg;
            if (ident(i + 2))
                firstArg = toks[i + 2].text;
            const bool cvLocal =
                std::find(localCvs.begin(), localCvs.end(),
                          site.receiver) != localCvs.end();
            const bool lockArg =
                std::find(guardVars.begin(), guardVars.end(), firstArg) !=
                guardVars.end();
            if (cvLocal || lockArg)
                what = "condition_variable::" + site.name;
            else if (futureish)
                what = "future::" + site.name;
        } else if (site.viaMember && site.name == "join" &&
                   (contains(low, "thread") || contains(low, "worker"))) {
            what = "thread::join";
        }
        if (what.empty())
            return;
        BlockingOp op;
        op.what = what;
        op.detail = site.receiver.empty() ? site.name : site.receiver;
        op.line = site.line;
        op.column = site.column;
        fn.blocking.push_back(std::move(op));
    }

    /** Record one switch's coverage; does not consume tokens. */
    void parseSwitch(size_t i, size_t e, const std::string &fnName)
    {
        if (i + 1 >= e || !toks[i + 1].isPunct("("))
            return;
        const size_t condClose = close(i + 1);
        if (condClose >= e || condClose + 1 >= e ||
            !toks[condClose + 1].isPunct("{"))
            return;
        const size_t bodyOpen = condClose + 1;
        const size_t bodyClose = close(bodyOpen);

        SwitchSite sw;
        sw.file = file.path();
        sw.line = toks[i].line;
        sw.column = toks[i].column;
        sw.function = fnName;

        // `static_cast<E>` in the condition names the enum directly.
        for (size_t j = i + 2; j < condClose; ++j) {
            if (toks[j].isIdent("static_cast") && tokIs(j + 1, "<")) {
                const size_t after = skipAngles(j + 1);
                for (size_t m = j + 2; m + 1 < after; ++m) {
                    if (toks[m].kind == TokenKind::Identifier)
                        sw.enumName = toks[m].text;
                }
            }
        }

        for (size_t j = bodyOpen + 1; j < bodyClose && j < e; ++j) {
            if (toks[j].isIdent("switch") && tokIs(j + 1, "(")) {
                // A nested switch owns its own cases; the outer walk
                // records it when it reaches the token.
                const size_t nestedCond = close(j + 1);
                if (nestedCond + 1 < e && toks[nestedCond + 1].isPunct("{"))
                    j = close(nestedCond + 1);
                continue;
            }
            if (toks[j].isIdent("default") && tokIs(j + 1, ":")) {
                sw.hasDefault = true;
                continue;
            }
            if (!toks[j].isIdent("case"))
                continue;
            std::string label;
            std::string qualifier;
            for (size_t m = j + 1; m < bodyClose; ++m) {
                if (toks[m].isPunct(":"))
                    break;
                if (toks[m].kind == TokenKind::Identifier) {
                    if (!label.empty())
                        qualifier = label;
                    label = toks[m].text;
                }
            }
            if (label.empty())
                continue;
            sw.covered.push_back(label);
            if (sw.enumName.empty() && !qualifier.empty())
                sw.enumName = qualifier;
        }
        out.switches.push_back(std::move(sw));
    }
};

} // namespace

FileSummary
summarizeFile(SourceFile file, std::vector<Token> tokens)
{
    FileSummary summary;
    {
        Walker walker(file, tokens, summary);
        walker.run();
    }
    summary.source = std::move(file);
    summary.tokens = std::move(tokens);
    std::sort(summary.functions.begin(), summary.functions.end(),
              [](const FunctionSummary &a, const FunctionSummary &b) {
                  return a.line < b.line;
              });
    return summary;
}

} // namespace dac::analysis
