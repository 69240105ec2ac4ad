#include "analysis/rules.h"

#include <map>

namespace dac::analysis {

namespace {

/**
 * The src/ layering, lowest first. A module may include itself and
 * anything with a strictly lower rank; equal-rank modules (cluster /
 * obs / analysis, sparksim / hadoopsim, ...) are independent siblings
 * and may not include each other. examples/, bench/, tools/, and
 * tests/ sit on top and may include anything.
 */
const std::map<std::string, int> &
layerRanks()
{
    static const std::map<std::string, int> ranks = {
        {"support", 0},  {"cluster", 10},  {"obs", 10},
        {"analysis", 10}, {"conf", 20},    {"ml", 30},
        {"ga", 30},      {"sparksim", 40}, {"hadoopsim", 40},
        {"workloads", 50}, {"dac", 60},    {"persist", 65},
        {"service", 70}, {"net", 80},
    };
    return ranks;
}

/** Module directory of a path under src/, or "" when not in src/. */
std::string
moduleOf(const std::string &path)
{
    const size_t at = path.rfind("src/");
    if (at == std::string::npos)
        return "";
    const size_t begin = at + 4;
    const size_t slash = path.find('/', begin);
    if (slash == std::string::npos)
        return "";
    return path.substr(begin, slash - begin);
}

/**
 * dac-include-hygiene: an upward include (e.g. sparksim including
 * service) inverts the layer order, creating cycles and letting
 * low-level code grow service-runtime dependencies. The dependency
 * direction is part of the architecture (DESIGN.md §3); this rule
 * keeps it machine-checked.
 */
class IncludeHygieneRule final : public Rule
{
  public:
    const char *
    name() const override
    {
        return "dac-include-hygiene";
    }

    const char *
    description() const override
    {
        return "src/ modules may only include same-or-lower layers";
    }

    void
    checkFile(const FileContext &ctx, std::vector<Finding> &out) const override
    {
        const std::string from = moduleOf(ctx.file.path());
        const auto &ranks = layerRanks();
        const auto fromRank = ranks.find(from);
        if (fromRank == ranks.end())
            return; // not in src/, or an unranked directory

        for (size_t li = 1; li <= ctx.file.lineCount(); ++li) {
            // An include inside `#if 0` never reaches the compiler,
            // so it cannot violate the layering.
            if (ctx.file.inDisabledRegion(li))
                continue;
            // The code view blanks string contents, so parse the raw
            // line; only project-local quoted includes are checked.
            const std::string &raw = ctx.file.raw(li);
            size_t i = raw.find_first_not_of(" \t");
            if (i == std::string::npos || raw[i] != '#')
                continue;
            i = raw.find_first_not_of(" \t", i + 1);
            if (i == std::string::npos || raw.compare(i, 7, "include") != 0)
                continue;
            const size_t openQuote = raw.find('"', i + 7);
            if (openQuote == std::string::npos)
                continue;
            const size_t closeQuote = raw.find('"', openQuote + 1);
            if (closeQuote == std::string::npos)
                continue;
            const std::string header =
                raw.substr(openQuote + 1, closeQuote - openQuote - 1);
            const size_t slash = header.find('/');
            if (slash == std::string::npos)
                continue;
            const std::string to = header.substr(0, slash);
            if (to == from)
                continue;
            const auto toRank = ranks.find(to);
            if (toRank == ranks.end() ||
                toRank->second < fromRank->second)
                continue;
            out.push_back(Finding{
                name(), ctx.file.path(), li, openQuote + 2,
                "layer violation: '" + from + "' (rank " +
                    std::to_string(fromRank->second) +
                    ") must not include '" + header + "' ('" + to +
                    "' has rank " + std::to_string(toRank->second) +
                    "); invert the dependency or move the shared "
                    "piece down"});
        }
    }
};

} // namespace

std::unique_ptr<Rule>
makeIncludeHygieneRule()
{
    return std::make_unique<IncludeHygieneRule>();
}

} // namespace dac::analysis
