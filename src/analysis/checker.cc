#include "analysis/checker.h"

#include <algorithm>
#include <filesystem>
#include <iterator>
#include <map>
#include <sstream>
#include <tuple>

#include "analysis/index.h"
#include "analysis/indexer.h"
#include "analysis/rules.h"
#include "support/json.h"
#include "support/logging.h"
#include "support/string_utils.h"

namespace dac::analysis {

namespace {

bool
isSourceExtension(const std::string &ext)
{
    return ext == ".h" || ext == ".hpp" || ext == ".cc" ||
           ext == ".cpp" || ext == ".cxx";
}

/** Build trees and VCS metadata are never checked. */
bool
isSkippedDirectory(const std::string &stem)
{
    return startsWith(stem, "build") || stem == ".git" ||
           stem == ".cache";
}

} // namespace

Checker::Checker()
{
    for (auto &rule : builtinRules()) {
        Entry entry;
        entry.description = rule->description();
        entry.rule = std::move(rule);
        entries.push_back(std::move(entry));
    }
}

std::vector<std::string>
Checker::ruleNames() const
{
    std::vector<std::string> names;
    names.reserve(entries.size());
    for (const auto &entry : entries)
        names.push_back(entry.rule->name());
    return names;
}

size_t
Checker::indexOf(const std::string &rule) const
{
    for (size_t i = 0; i < entries.size(); ++i) {
        if (rule == entries[i].rule->name())
            return i;
    }
    fatalError("unknown rule: " + rule);
}

const std::string &
Checker::describe(const std::string &rule) const
{
    return entries[indexOf(rule)].description;
}

void
Checker::disable(const std::string &rule)
{
    entries[indexOf(rule)].enabled = false;
}

void
Checker::enableOnly(const std::vector<std::string> &rules)
{
    for (auto &entry : entries)
        entry.enabled = false;
    for (const auto &rule : rules)
        entries[indexOf(rule)].enabled = true;
}

LintReport
Checker::check(size_t fileCount,
               const std::function<SourceFile(size_t)> &load,
               Executor *executor) const
{
    std::vector<std::vector<Finding>> perFile(fileCount);
    std::vector<FileSummary> summaries(fileCount);
    parallelFor(executor, fileCount, [&](size_t i) {
        SourceFile source = load(i);
        std::vector<Token> tokens = lex(source);
        const FileContext ctx{source, tokens};
        for (const auto &entry : entries) {
            if (entry.enabled)
                entry.rule->checkFile(ctx, perFile[i]);
        }
        summaries[i] = summarizeFile(std::move(source), std::move(tokens));
    });

    LintReport report;
    report.fileCount = fileCount;
    for (auto &findings : perFile)
        report.findings.insert(report.findings.end(),
                               std::make_move_iterator(findings.begin()),
                               std::make_move_iterator(findings.end()));

    ProgramIndex index;
    for (FileSummary &summary : summaries)
        index.add(std::move(summary));
    index.finalize();
    for (const auto &entry : entries) {
        if (entry.enabled)
            entry.rule->checkProgram(index, report.findings);
    }

    std::map<std::string, const SourceFile *> sources;
    for (const FileSummary &file : index.files())
        sources.emplace(file.source.path(), &file.source);
    std::erase_if(report.findings, [&](const Finding &f) {
        const auto it = sources.find(f.file);
        if (it == sources.end())
            return false;
        // dac-nolint-naked flags bare markers, so the bare marker
        // itself cannot suppress it — only a named one can.
        if (f.rule == "dac-nolint-naked")
            return it->second->suppressedByName(f.line, f.rule);
        return it->second->suppressed(f.line, f.rule);
    });
    std::sort(report.findings.begin(), report.findings.end(),
              [](const Finding &a, const Finding &b) {
                  return std::tie(a.file, a.line, a.column, a.rule) <
                         std::tie(b.file, b.line, b.column, b.rule);
              });
    return report;
}

LintReport
Checker::checkTexts(
    const std::vector<std::pair<std::string, std::string>> &files) const
{
    return check(
        files.size(),
        [&](size_t i) {
            return SourceFile::fromString(files[i].first, files[i].second);
        },
        nullptr);
}

LintReport
Checker::run(const std::vector<std::string> &paths,
             Executor *executor) const
{
    const std::vector<std::string> files = collectSourceFiles(paths);
    return check(
        files.size(),
        [&](size_t i) { return SourceFile::load(files[i]); }, executor);
}

std::vector<std::string>
collectSourceFiles(const std::vector<std::string> &paths)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    for (const auto &path : paths) {
        if (!fs::exists(path))
            fatalError("no such file or directory: " + path);
        if (fs::is_regular_file(path)) {
            files.push_back(path);
            continue;
        }
        auto it = fs::recursive_directory_iterator(path);
        for (const auto &entry : it) {
            const std::string stem = entry.path().filename().string();
            if (entry.is_directory() && isSkippedDirectory(stem)) {
                it.disable_recursion_pending();
                continue;
            }
            if (entry.is_regular_file() &&
                isSourceExtension(entry.path().extension().string()))
                files.push_back(entry.path().string());
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

std::string
renderText(const LintReport &report)
{
    std::ostringstream out;
    for (const auto &f : report.findings) {
        out << f.file << ":" << f.line << ":" << f.column
            << ": warning: " << f.message << " [" << f.rule << "]\n";
    }
    out << report.findings.size() << " finding(s) in "
        << report.fileCount << " file(s)\n";
    return out.str();
}

std::string
renderJson(const LintReport &report)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"tool\": \"dac-lint\",\n"
        << "  \"version\": \"1.0\",\n"
        << "  \"files\": " << report.fileCount << ",\n"
        << "  \"findings\": [";
    for (size_t i = 0; i < report.findings.size(); ++i) {
        const Finding &f = report.findings[i];
        out << (i == 0 ? "\n" : ",\n")
            << "    {\"rule\": \"" << jsonEscape(f.rule)
            << "\", \"file\": \"" << jsonEscape(f.file)
            << "\", \"line\": " << f.line
            << ", \"column\": " << f.column
            << ", \"message\": \"" << jsonEscape(f.message) << "\"}";
    }
    out << (report.findings.empty() ? "]" : "\n  ]") << "\n}\n";
    return out.str();
}

std::string
renderSarif(const LintReport &report)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
        << "  \"version\": \"2.1.0\",\n"
        << "  \"runs\": [{\n"
        << "    \"tool\": {\"driver\": {\"name\": \"dac-lint\", "
           "\"version\": \"1.0\"}},\n"
        << "    \"results\": [";
    for (size_t i = 0; i < report.findings.size(); ++i) {
        const Finding &f = report.findings[i];
        out << (i == 0 ? "\n" : ",\n")
            << "      {\"ruleId\": \"" << jsonEscape(f.rule)
            << "\", \"level\": \"warning\", \"message\": {\"text\": \""
            << jsonEscape(f.message)
            << "\"}, \"locations\": [{\"physicalLocation\": "
               "{\"artifactLocation\": {\"uri\": \""
            << jsonEscape(f.file)
            << "\"}, \"region\": {\"startLine\": " << f.line
            << ", \"startColumn\": " << f.column << "}}}]}";
    }
    out << (report.findings.empty() ? "]" : "\n    ]") << "\n  }]\n}\n";
    return out.str();
}

} // namespace dac::analysis
