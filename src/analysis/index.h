/**
 * @file
 * The cross-TU index: merges per-file summaries
 * (indexer.h) into one program view — a name-resolved call graph, a
 * may-block fixpoint with witness chains, per-function transitive
 * lock-acquisition sets, and a whole-program lock-order graph whose
 * edges remember where they were observed. The rules' checkProgram
 * hooks (rule.h) are thin queries over this.
 *
 * Call resolution is deliberately conservative: `::name(...)` (libc)
 * and a long list of std/container member names never resolve, a
 * qualified `Class::name` binds exactly, a bare or member call binds
 * to same-class methods first and otherwise only when few same-named
 * candidates exist. Unresolved calls contribute nothing — silence
 * over speculation.
 */

#ifndef DAC_ANALYSIS_INDEX_H
#define DAC_ANALYSIS_INDEX_H

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/summary.h"

namespace dac::analysis {

/** One step of a witness chain, pre-rendered for messages. */
struct WitnessStep
{
    std::string file;
    size_t line = 0;
    /** "Connection::dispatchBatch calls ThreadPool::post" or
     *  "condition_variable::wait on queueSpace". */
    std::string text;
};

/** One observed before→after lock ordering. */
struct LockEdge
{
    std::string from;
    std::string to;
    /** Where `to` was acquired (or the call made) with `from` held. */
    std::string file;
    size_t line = 0;
    /** Qualified name of the function holding `from`. */
    std::string function;
    /** For indirect edges: the call chain from the held site to the
     *  acquisition, pre-rendered. Empty for same-function edges. */
    std::vector<WitnessStep> path;
};

/**
 * The merged whole-program view.
 */
class ProgramIndex
{
  public:
    /** Move one file's summary in (before finalize()). */
    void add(FileSummary summary);

    /** Build maps, resolve calls, run the fixpoints. Call once. */
    void finalize();

    [[nodiscard]] const std::vector<FileSummary> &files() const
    {
        return fileSummaries;
    }

    /** The definition of `qualified`, or nullptr. */
    [[nodiscard]] const FunctionSummary *
    function(const std::string &qualified) const;

    /** Possible callees of one call site (empty when unresolved). */
    [[nodiscard]] std::vector<const FunctionSummary *>
    resolve(const FunctionSummary &caller, const CallSite &site) const;

    /** All resolved (site, callee) edges out of fn, stable order. */
    [[nodiscard]] const std::vector<
        std::pair<const CallSite *, const FunctionSummary *>> &
    callees(const FunctionSummary &fn) const;

    /** Enum definitions by unqualified name (ambiguous names — same
     *  name, different enumerators — are excluded). */
    [[nodiscard]] const std::map<std::string, EnumDef> &enums() const
    {
        return enumDefs;
    }

    /** Merged class infos by class name. */
    [[nodiscard]] const std::map<std::string, ClassInfo> &classes() const
    {
        return classInfos;
    }

    /** True when fn (or anything it may call) can block its thread. */
    [[nodiscard]] bool mayBlock(const FunctionSummary &fn) const;

    /** Chain from fn down to a concrete blocking operation; empty
     *  when !mayBlock(fn). */
    [[nodiscard]] std::vector<WitnessStep>
    blockingWitness(const FunctionSummary &fn) const;

    /** Lock ids fn may acquire, directly or via calls. */
    [[nodiscard]] const std::set<std::string> &
    acquiredSet(const FunctionSummary &fn) const;

    /** Every observed lock ordering, deterministic order. */
    [[nodiscard]] const std::vector<LockEdge> &lockEdges() const
    {
        return edges;
    }

    /**
     * Every lock-order cycle in the edge graph, as node sequences
     * (first node repeated at the end), canonicalized and deduplicated.
     */
    [[nodiscard]] std::vector<std::vector<std::string>>
    lockCycles() const;

    /** The first recorded edge from `from` to `to`, or nullptr. */
    [[nodiscard]] const LockEdge *edge(const std::string &from,
                                       const std::string &to) const;

  private:
    struct FnState
    {
        /** Direct blocking op, when the function has one. */
        const BlockingOp *direct = nullptr;
        /** Otherwise: the call site and callee leading to one. */
        const CallSite *viaSite = nullptr;
        const FunctionSummary *viaCallee = nullptr;
        bool mayBlock = false;
        std::set<std::string> acquired;
        /** Provenance for indirect acquisitions: lockId -> step. */
        std::map<std::string, std::pair<const CallSite *,
                                        const FunctionSummary *>>
            acquiredVia;
        /** Direct acquisition sites by lock id. */
        std::map<std::string, const LockAcquisition *> acquiredAt;
    };

    FnState &state(const FunctionSummary &fn) const;
    void resolveAll();
    void propagateBlocking();
    void propagateAcquired();
    void buildLockEdges();
    void appendAcquisitionPath(const FunctionSummary &fn,
                               const std::string &lockId,
                               std::vector<WitnessStep> &path) const;

    std::vector<FileSummary> fileSummaries;
    std::map<std::string, EnumDef> enumDefs;
    std::map<std::string, ClassInfo> classInfos;
    /** qualified name -> definition (first wins). */
    std::map<std::string, FunctionSummary *> byQualified;
    /** unqualified name -> definitions. */
    std::map<std::string, std::vector<FunctionSummary *>> byName;
    /** per-function derived state, keyed by summary address. */
    mutable std::map<const FunctionSummary *, FnState> states;
    /** resolved edges: caller -> (site, callee) in stable order. */
    std::map<const FunctionSummary *,
             std::vector<std::pair<const CallSite *,
                                   const FunctionSummary *>>>
        resolved;
    std::vector<LockEdge> edges;
    std::set<std::string> ambiguousEnums;
};

} // namespace dac::analysis

#endif // DAC_ANALYSIS_INDEX_H
