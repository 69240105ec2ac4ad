/**
 * @file
 * Checker: the one rule registry and its configuration,
 * finding order, suppression wiring (including the stricter
 * dac-nolint-naked contract), report rendering, and one pass over a
 * tree on disk that reports every finding once and matches its
 * parallel run bit for bit.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/checker.h"
#include "service/thread_pool.h"

namespace dac::analysis {
namespace {

using Files = std::vector<std::pair<std::string, std::string>>;

/** A fixture with one dac-atomic-order and one dac-units finding. */
const char *const kMixedFixture =
    "void f() {\n"
    "    counter.fetch_add(1);\n"
    "    bytes = gb * 1024.0;\n"
    "}\n";

/** The registry's names restricted to `subset`, in registry order. */
std::vector<std::string>
registeredAmong(const Checker &checker,
                const std::vector<std::string> &subset)
{
    std::vector<std::string> out;
    for (const auto &name : checker.ruleNames()) {
        if (std::find(subset.begin(), subset.end(), name) != subset.end())
            out.push_back(name);
    }
    return out;
}

/** The per-file rules: each inspects one lexed file. */
const std::vector<std::string> kPerFileRules = {
    "dac-span-pairing",    "dac-rng-discipline",
    "dac-atomic-order",    "dac-lock-hygiene",
    "dac-include-hygiene", "dac-units",
    "dac-nolint-naked",
};

/** Findings for one buffer checked as a one-file program. */
std::vector<Finding>
checkText(const Checker &checker, const std::string &path,
          const std::string &text)
{
    return checker.checkTexts({{path, text}}).findings;
}

TEST(Checker, RegistersAllElevenRulesInDisplayOrder)
{
    const Checker checker;
    const std::vector<std::string> expected = {
        "dac-span-pairing",    "dac-rng-discipline",
        "dac-atomic-order",    "dac-lock-hygiene",
        "dac-include-hygiene", "dac-units",
        "dac-lock-order",      "dac-blocking-in-loop",
        "dac-enum-switch",     "dac-payload-bounds",
        "dac-nolint-naked",
    };
    EXPECT_EQ(checker.ruleNames(), expected);
    for (const auto &rule : expected)
        EXPECT_FALSE(checker.describe(rule).empty()) << rule;
}

TEST(Linter, RegistersAllSevenBuiltinRules)
{
    // Each per-file rule is registered exactly once, in display
    // order, and describes itself.
    const Checker checker;
    EXPECT_EQ(registeredAmong(checker, kPerFileRules), kPerFileRules);
    for (const auto &rule : kPerFileRules)
        EXPECT_FALSE(checker.describe(rule).empty()) << rule;
}

TEST(Linter, EnableOnlyRestrictsToNamedRules)
{
    Checker checker;
    checker.enableOnly({"dac-units"});
    const auto findings = checkText(checker, "a.cc", kMixedFixture);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dac-units");
}

TEST(Linter, DisableDropsOneRule)
{
    Checker checker;
    checker.disable("dac-units");
    const auto findings = checkText(checker, "a.cc", kMixedFixture);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dac-atomic-order");
}

TEST(Linter, FindingsAreSortedByPosition)
{
    const Checker checker;
    const auto findings = checkText(checker, "a.cc", kMixedFixture);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_LT(findings[0].line, findings[1].line);
}

TEST(Linter, NolintSuppressionIsAppliedAfterRules)
{
    const Checker checker;
    const auto findings = checkText(
        checker, "a.cc",
        "void f() {\n"
        "    counter.fetch_add(1); // NOLINT(dac-atomic-order)\n"
        "    bytes = gb * 1024.0; // NOLINT(dac-units)\n"
        "}\n");
    EXPECT_TRUE(findings.empty());
}

TEST(Linter, BareNolintStillSuppressesButIsItselfAFinding)
{
    // A bare NOLINT keeps its suppressing power (it silences the
    // dac-units finding on its line) but is flagged by the
    // dac-nolint-naked rule — and cannot suppress that rule.
    const Checker checker;
    const auto findings = checkText(
        checker, "a.cc", "bytes = gb * 1024.0; // NOLINT\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dac-nolint-naked");
    EXPECT_EQ(findings[0].line, 1u);
}

TEST(Linter, NamedNolintSuppressesTheNakedFinding)
{
    const Checker checker;
    const auto findings = checkText(
        checker, "a.cc",
        "// NOLINT: reason but no rule name\n"
        "// NOLINT(dac-nolint-naked): grandfathered marker above\n");
    // Line 1's bare marker is naked, but line 2 names the rule; each
    // suppression applies to its own line only, so line 1 still fires.
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 1u);
}

TEST(Linter, NolintForADifferentRuleDoesNotSuppress)
{
    const Checker checker;
    const auto findings = checkText(
        checker, "a.cc", "counter.fetch_add(1); // NOLINT(dac-units)\n");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "dac-atomic-order");
}

TEST(Linter, CleanReportReportsClean)
{
    LintReport report;
    EXPECT_TRUE(report.clean());
    report.findings.push_back(Finding{"dac-units", "a.cc", 1, 1, "m"});
    EXPECT_FALSE(report.clean());
}

TEST(Analyzer, RegistersAllFiveProgramRules)
{
    // The whole-program rules keep their order, and dac-nolint-naked
    // is registered once, not once per pass.
    const Checker checker;
    const std::vector<std::string> expected = {
        "dac-lock-order",     "dac-blocking-in-loop",
        "dac-enum-switch",    "dac-payload-bounds",
        "dac-nolint-naked",
    };
    EXPECT_EQ(registeredAmong(checker, expected), expected);
    for (const auto &rule : expected)
        EXPECT_FALSE(checker.describe(rule).empty()) << rule;
}

TEST(Analyzer, DisableDropsOneRule)
{
    Checker checker;
    checker.disable("dac-nolint-naked");
    const auto report = checker.checkTexts({{"a.cc", "// NOLINT\n"}});
    EXPECT_TRUE(report.findings.empty());
}

TEST(Analyzer, EnableOnlyRestrictsToNamedRules)
{
    Checker checker;
    checker.enableOnly({"dac-nolint-naked"});
    const Files files = {
        {"proto.h", "enum class Kind { A, B };\n"},
        {"use.cc",
         "void f(Kind k) {\n"
         "    switch (k) {\n"
         "    case Kind::A: // NOLINT\n"
         "        break;\n"
         "    }\n"
         "}\n"},
    };
    const auto report = checker.checkTexts(files);
    // The uncovered switch would fire dac-enum-switch; only the bare
    // marker survives the restriction.
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "dac-nolint-naked");
}

TEST(Analyzer, FindingsSortedByFileThenLine)
{
    const Checker checker;
    // Files handed over in reverse path order; the report re-sorts.
    const Files files = {
        {"b.cc", "// NOLINT\n// NOLINT\n"},
        {"a.cc", "// NOLINT\n"},
    };
    const auto report = checker.checkTexts(files);
    ASSERT_EQ(report.findings.size(), 3u);
    EXPECT_EQ(report.findings[0].file, "a.cc");
    EXPECT_EQ(report.findings[1].file, "b.cc");
    EXPECT_EQ(report.findings[1].line, 1u);
    EXPECT_EQ(report.findings[2].line, 2u);
    EXPECT_EQ(report.fileCount, 2u);
}

TEST(Analyzer, BareNolintCannotSuppressItsOwnFinding)
{
    const Checker checker;
    const auto report = checker.checkTexts({{"a.cc", "// NOLINT\n"}});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "dac-nolint-naked");
}

TEST(Analyzer, NamedSuppressionSilencesTheNakedFinding)
{
    const Checker checker;
    const auto report = checker.checkTexts(
        {{"a.cc",
          "// NOLINT(dac-nolint-naked): grandfathered bare marker\n"}});
    EXPECT_TRUE(report.findings.empty());
}

TEST(RenderText, EmitsGccStyleLinesAndSummary)
{
    const Checker checker;
    const LintReport report =
        checker.checkTexts({{"src/x.cc", kMixedFixture}});
    const std::string text = renderText(report);
    EXPECT_NE(text.find("src/x.cc:2:13: warning:"), std::string::npos);
    EXPECT_NE(text.find("[dac-atomic-order]"), std::string::npos);
    EXPECT_NE(text.find("2 finding(s) in 1 file(s)"), std::string::npos);
}

TEST(RenderJson, EmitsToolHeaderAndOneObjectPerFinding)
{
    const Checker checker;
    const LintReport report =
        checker.checkTexts({{"src/x.cc", kMixedFixture}});
    const std::string json = renderJson(report);
    EXPECT_NE(json.find("\"tool\": \"dac-lint\""), std::string::npos);
    EXPECT_NE(json.find("\"files\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"dac-atomic-order\""),
              std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"dac-units\""), std::string::npos);
    EXPECT_NE(json.find("\"line\": 2"), std::string::npos);
}

TEST(RenderJson, EscapesQuotesInMessages)
{
    LintReport report;
    report.fileCount = 1;
    report.findings.push_back(
        Finding{"dac-units", "a.cc", 1, 1, "say \"hi\"\n"});
    const std::string json = renderJson(report);
    EXPECT_NE(json.find("say \\\"hi\\\"\\n"), std::string::npos);
}

TEST(RenderJson, EmptyReportIsStillValidJson)
{
    LintReport report;
    report.fileCount = 3;
    const std::string json = renderJson(report);
    EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
}

TEST(RenderSarif, EmitsSchemaDriverAndPhysicalLocations)
{
    const Checker checker;
    const auto report =
        checker.checkTexts({{"src/net/x.cc", "// NOLINT\n"}});
    const std::string sarif = renderSarif(report);
    EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"dac-lint\""), std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"dac-nolint-naked\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"src/net/x.cc\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
}

TEST(RenderSarif, EmptyReportIsStillAValidRun)
{
    const std::string sarif = renderSarif(LintReport{});
    EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
}

/** A tree on disk with one finding of each kind: a per-file rule
 *  (count.cc), a cross-file rule (the enum in proto.h, its switch in
 *  handle.cc), a single-file program rule (peek.cc) and a bare
 *  NOLINT. Each test gets its own directory because ctest runs the
 *  tests as concurrent processes: with a shared one, one test's
 *  TearDown deletes files the other is still reading. */
class AnalyzerDiskFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char dirTemplate[] = "/tmp/dac-lint-XXXXXX";
        ASSERT_NE(mkdtemp(dirTemplate), nullptr);
        root = dirTemplate;
        std::filesystem::create_directories(root / "src" / "net");
        write("src/net/proto.h", "enum class Op { Get, Put, Del };\n");
        write("src/net/handle.cc",
              "void handle(Op op) {\n"
              "    switch (op) {\n"
              "    case Op::Get:\n"
              "        break;\n"
              "    }\n"
              "}\n");
        write("src/net/peek.cc",
              "uint32_t peek(const uint8_t *payload) {\n"
              "    return payload[0];\n"
              "}\n");
        write("src/net/count.cc",
              "void bump() {\n"
              "    hits.fetch_add(1);\n"
              "}\n"
              "// NOLINT\n");
    }

    void TearDown() override
    {
        std::filesystem::remove_all(root);
    }

    void write(const std::string &rel, const std::string &text)
    {
        std::ofstream out(root / rel, std::ios::binary);
        out << text;
    }

    std::filesystem::path root;
};

TEST_F(AnalyzerDiskFixture, OneRunReportsEachFindingOnceInOrder)
{
    const Checker checker;
    const LintReport report = checker.run({root.string()}, nullptr);

    struct Expected
    {
        const char *file;
        size_t line;
        const char *rule;
    };
    const std::vector<Expected> expected = {
        {"count.cc", 2, "dac-atomic-order"},
        {"count.cc", 4, "dac-nolint-naked"},
        {"handle.cc", 2, "dac-enum-switch"},
        {"peek.cc", 2, "dac-payload-bounds"},
    };
    ASSERT_EQ(report.findings.size(), expected.size());
    EXPECT_EQ(report.fileCount, 4u);
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(report.findings[i].file,
                  (root / "src" / "net" / expected[i].file).string());
        EXPECT_EQ(report.findings[i].line, expected[i].line);
        EXPECT_EQ(report.findings[i].rule, expected[i].rule);
    }
}

TEST_F(AnalyzerDiskFixture, ParallelRunMatchesSerialRun)
{
    const Checker checker;
    const auto serial = checker.run({root.string()}, nullptr);
    service::ThreadPool pool(4);
    const auto parallel = checker.run({root.string()}, &pool);

    ASSERT_EQ(serial.findings.size(), 4u);
    ASSERT_EQ(parallel.findings.size(), serial.findings.size());
    EXPECT_EQ(parallel.fileCount, serial.fileCount);
    for (size_t i = 0; i < serial.findings.size(); ++i) {
        EXPECT_EQ(parallel.findings[i].rule, serial.findings[i].rule);
        EXPECT_EQ(parallel.findings[i].file, serial.findings[i].file);
        EXPECT_EQ(parallel.findings[i].line, serial.findings[i].line);
        EXPECT_EQ(parallel.findings[i].message,
                  serial.findings[i].message);
    }
}

TEST_F(AnalyzerDiskFixture, LinterParallelRunMatchesSerialRun)
{
    // The per-file rules alone: count.cc's two findings, the same in a
    // parallel run as in a serial one.
    Checker checker;
    checker.enableOnly(kPerFileRules);
    const auto serial = checker.run({root.string()}, nullptr);
    service::ThreadPool pool(4);
    const auto parallel = checker.run({root.string()}, &pool);

    ASSERT_EQ(serial.findings.size(), 2u);
    ASSERT_EQ(parallel.findings.size(), serial.findings.size());
    EXPECT_EQ(parallel.fileCount, serial.fileCount);
    for (size_t i = 0; i < serial.findings.size(); ++i) {
        EXPECT_EQ(parallel.findings[i].file, serial.findings[i].file);
        EXPECT_EQ(parallel.findings[i].line, serial.findings[i].line);
    }
}

} // namespace
} // namespace dac::analysis
