#include "analysis/rules.h"

#include "analysis/index.h"

namespace dac::analysis {

namespace {

/**
 * dac-lock-order: every observed before→after ordering between two
 * lock identities is an edge in a whole-program graph; a cycle means
 * two threads can acquire the same locks in opposite orders and
 * deadlock. The finding prints the full witness path — which function
 * acquired what with what held, across files — so the report is
 * actionable without re-running the analysis.
 */
class LockOrderRule final : public Rule
{
  public:
    const char *
    name() const override
    {
        return "dac-lock-order";
    }

    const char *
    description() const override
    {
        return "whole-program lock acquisition graph must be acyclic";
    }

    void
    checkProgram(const ProgramIndex &index,
                 std::vector<Finding> &out) const override
    {
        for (const auto &cycle : index.lockCycles()) {
            // cycle: [a, b, ..., a]
            std::string order;
            for (size_t i = 0; i < cycle.size(); ++i)
                order += (i == 0 ? "" : " -> ") + cycle[i];

            std::string witness;
            const LockEdge *anchor = nullptr;
            for (size_t i = 0; i + 1 < cycle.size(); ++i) {
                const LockEdge *edge =
                    index.edge(cycle[i], cycle[i + 1]);
                if (edge == nullptr)
                    continue;
                if (anchor == nullptr)
                    anchor = edge;
                witness += "; " + edge->to + " acquired with " +
                    edge->from + " held at " + edge->file + ":" +
                    std::to_string(edge->line) + " (" + edge->function +
                    ")";
                for (const WitnessStep &step : edge->path) {
                    witness += " via " + step.text + " [" + step.file +
                        ":" + std::to_string(step.line) + "]";
                }
            }
            if (anchor == nullptr)
                continue;
            out.push_back(Finding{
                name(), anchor->file, anchor->line, 1,
                "lock-order cycle: " + order + witness +
                    "; acquire these locks in one global order or "
                    "collapse them"});
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeLockOrderRule()
{
    return std::make_unique<LockOrderRule>();
}

} // namespace dac::analysis
