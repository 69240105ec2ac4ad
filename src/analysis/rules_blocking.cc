#include "analysis/rules.h"

#include <set>

#include "analysis/index.h"

namespace dac::analysis {

namespace {

/** Directory prefix of a path ("src/net/server.cc" -> "src/net"). */
std::string
dirOf(const std::string &path)
{
    const size_t at = path.find_last_of('/');
    return at == std::string::npos ? "" : path.substr(0, at);
}

/**
 * dac-blocking-in-loop: event-loop callbacks (lambdas handed to
 * EventLoop::watch/runInLoop) and seqlock writer sections must never
 * block — a blocked loop thread stalls every connection pinned to it,
 * and a blocked seqlock writer leaves its slot torn for the duration.
 * The rule walks the resolved call graph from each such root through
 * its own module; a call edge into a may-block function (or a direct
 * blocking op inside the context) is a finding, with the chain down
 * to the concrete blocking operation printed as the witness.
 *
 * Pool-task and detached-thread lambdas are separate roots of their
 * own threads, not part of the enclosing function's context, so work
 * handed off via post()/tryPost()/std::thread does not taint the
 * loop.
 */
class BlockingInLoopRule final : public Rule
{
  public:
    const char *
    name() const override
    {
        return "dac-blocking-in-loop";
    }

    const char *
    description() const override
    {
        return "no blocking calls reachable from event-loop or "
               "seqlock-writer context";
    }

    void
    checkProgram(const ProgramIndex &index,
                 std::vector<Finding> &out) const override
    {
        std::set<std::string> reported;
        for (const FileSummary &file : index.files()) {
            for (const FunctionSummary &fn : file.functions) {
                if (fn.role == LambdaRole::LoopCallback)
                    checkRoot(index, fn, "event-loop callback",
                              reported, out);
                else if (fn.seqlockWriter)
                    checkRoot(index, fn, "seqlock writer", reported,
                              out);
            }
        }
    }

  private:
    void
    checkRoot(const ProgramIndex &index, const FunctionSummary &root,
              const std::string &rootKind,
              std::set<std::string> &reported,
              std::vector<Finding> &out) const
    {
        const std::string module = dirOf(root.file);
        std::set<const FunctionSummary *> context;
        std::vector<const FunctionSummary *> queue{&root};
        context.insert(&root);
        while (!queue.empty()) {
            const FunctionSummary *cur = queue.back();
            queue.pop_back();

            // Direct blocking operations inside the context.
            for (const BlockingOp &op : cur->blocking) {
                report(out, reported, cur->file, op.line, op.column,
                       op.what + " on " + op.detail + " in " +
                           cur->qualified,
                       root, rootKind, {});
            }
            for (const auto &[site, callee] : index.callees(*cur)) {
                if (callee->role == LambdaRole::PoolTask ||
                    callee->role == LambdaRole::DetachedThread)
                    continue; // runs on its own thread
                if (dirOf(callee->file) == module) {
                    if (context.insert(callee).second)
                        queue.push_back(callee);
                    continue;
                }
                if (!index.mayBlock(*callee))
                    continue;
                report(out, reported, cur->file, site->line,
                       site->column,
                       cur->qualified + " calls " + callee->qualified,
                       root, rootKind, index.blockingWitness(*callee));
            }
        }
    }

    void
    report(std::vector<Finding> &out, std::set<std::string> &reported,
           const std::string &file, size_t line, size_t column,
           const std::string &head, const FunctionSummary &root,
           const std::string &rootKind,
           const std::vector<WitnessStep> &chain) const
    {
        std::string message = "blocking operation reachable from " +
            rootKind + " " + root.qualified + " (" + root.file + ":" +
            std::to_string(root.line) + "): " + head;
        for (const WitnessStep &step : chain) {
            message += " -> " + step.text + " [" + step.file + ":" +
                std::to_string(step.line) + "]";
        }
        message +=
            "; this context must stay non-blocking (hand the work to "
            "a pool via tryPost or restructure)";
        const std::string key =
            file + ":" + std::to_string(line) + ":" + head;
        if (!reported.insert(key).second)
            return;
        out.push_back(
            Finding{name(), file, line, column, std::move(message)});
    }
};

} // namespace

std::unique_ptr<Rule>
makeBlockingInLoopRule()
{
    return std::make_unique<BlockingInLoopRule>();
}

} // namespace dac::analysis
