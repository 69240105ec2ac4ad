/**
 * @file
 * The whole-program data model: what the per-file indexer (indexer.h)
 * extracts from one translation unit, and what the cross-TU
 * ProgramIndex (index.h) merges. Everything here is plain data — the
 * indexer fills it in one token walk, the index links it, the rules'
 * checkProgram hooks (rule.h) read it.
 *
 * The model is deliberately coarse: function bodies are summarized as
 * flat lists of call sites / lock acquisitions / blocking operations,
 * each carrying the set of locks held at that point. That is enough
 * for lock-order cycles and blocking-reachability, which are the
 * whole-program properties a single-file check cannot see.
 */

#ifndef DAC_ANALYSIS_SUMMARY_H
#define DAC_ANALYSIS_SUMMARY_H

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "analysis/lexer.h"
#include "analysis/source.h"

namespace dac::analysis {

/** How a lambda is executed, judged from the call it is passed to. */
enum class LambdaRole {
    /** Invoked in place or stored without a recognized sink. */
    Inline,
    /** Passed to runInLoop()/watch(): runs on an event-loop thread. */
    LoopCallback,
    /** Passed to post()/tryPost()/submit(): runs on a pool worker. */
    PoolTask,
    /** Passed to a std::thread (or emplace_back on a thread vector):
     *  runs on its own thread. */
    DetachedThread,
};

/** One `name(...)` call site inside a function body. */
struct CallSite
{
    /** Unqualified callee name ("post", "handleReadable"). */
    std::string name;
    /** `Qual::name(...)` qualifier when present ("FlightRecorder"). */
    std::string qualifier;
    /** Receiver text for member calls ("pool", "slot.seq"). */
    std::string receiver;
    /** True for `recv.name(...)` / `recv->name(...)`. */
    bool viaMember = false;
    /** True for `::name(...)` — a libc/system call, never resolved. */
    bool globalScope = false;
    size_t line = 0;
    size_t column = 0;
    /** Identities of locks held when the call executes. */
    std::vector<std::string> locksHeld;
};

/** One RAII lock acquisition (`std::lock_guard<..> g(expr)`). */
struct LockAcquisition
{
    /** Canonical lock identity, e.g. "ModelCache::mutex". */
    std::string lockId;
    /** Guard type ("lock_guard", "unique_lock", ...). */
    std::string guard;
    size_t line = 0;
    size_t column = 0;
    /** Lock identities already held when this one is acquired. */
    std::vector<std::string> locksHeld;
};

/** One operation that can block the calling thread. */
struct BlockingOp
{
    /** What blocks: "future::get", "condition_variable::wait",
     *  "sleep_for", "thread::join", "connectTcp", ... */
    std::string what;
    /** The receiver/argument text, for the witness message. */
    std::string detail;
    size_t line = 0;
    size_t column = 0;
};

/** Summary of one function (or lambda) definition. */
struct FunctionSummary
{
    /** Unqualified name; lambdas get "lambda@<line>". */
    std::string name;
    /** Owning class for methods and for lambdas defined inside
     *  methods; "" for free functions. */
    std::string owner;
    /** "owner::name" or just "name". */
    std::string qualified;
    std::string file;
    size_t line = 0;
    /** Line of the body's closing brace (for line attribution). */
    size_t bodyEndLine = 0;
    bool isLambda = false;
    LambdaRole role = LambdaRole::Inline;
    /** Qualified name of the function lexically containing this
     *  lambda ("" for named functions). */
    std::string enclosing;
    /** True when the body performs a seqlock-writer sequence
     *  (stores to a member named `seq`). Such functions are treated
     *  as latency-critical roots by dac-blocking-in-loop. */
    bool seqlockWriter = false;
    std::vector<CallSite> calls;
    std::vector<LockAcquisition> locks;
    std::vector<BlockingOp> blocking;
};

/** One `enum class` definition. */
struct EnumDef
{
    /** Unqualified name ("MsgType"). */
    std::string name;
    std::string file;
    size_t line = 0;
    std::vector<std::string> enumerators;
};

/** One `switch` statement whose cases name enum members. */
struct SwitchSite
{
    /** Enum the switch dispatches over, deduced from `case E::x`
     *  labels or a `static_cast<E>` in the condition; "" unknown. */
    std::string enumName;
    std::vector<std::string> covered;
    bool hasDefault = false;
    std::string file;
    size_t line = 0;
    size_t column = 0;
    /** Qualified name of the enclosing function ("" at file scope). */
    std::string function;
};

/** Concurrency-relevant members of one class, from its declaration. */
struct ClassInfo
{
    std::string name;
    /** Members of std::mutex-like type. */
    std::vector<std::string> mutexMembers;
    /** Members of std::condition_variable type: `x.wait(..)` on one
     *  of these is a blocking operation. */
    std::vector<std::string> cvMembers;
    /** Members of std::thread (or vector-of-thread) type. */
    std::vector<std::string> threadMembers;
};

/** Everything the indexer extracts from one file. */
struct FileSummary
{
    /** The scanned source (kept for suppression filtering). */
    SourceFile source;
    /** The file's tokens (lex(source)), kept so program rules that
     *  walk the token stream do not lex the file again. */
    std::vector<Token> tokens;
    std::vector<FunctionSummary> functions;
    std::vector<EnumDef> enums;
    std::vector<SwitchSite> switches;
    std::map<std::string, ClassInfo> classes;
};

} // namespace dac::analysis

#endif // DAC_ANALYSIS_SUMMARY_H
