/**
 * @file
 * Analyzer driver tests: rule registry configuration, cross-file
 * finding order, the stricter dac-nolint-naked suppression contract,
 * report rendering (JSON tool naming, SARIF shape), and the
 * parallel-summarization path matching the serial one bit for bit.
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "service/thread_pool.h"

namespace dac::analysis {
namespace {

using Files = std::vector<std::pair<std::string, std::string>>;

TEST(Analyzer, RegistersAllFiveProgramRules)
{
    const Analyzer analyzer;
    const auto names = analyzer.ruleNames();
    const std::vector<std::string> expected = {
        "dac-lock-order",     "dac-blocking-in-loop",
        "dac-enum-switch",    "dac-payload-bounds",
        "dac-nolint-naked",
    };
    EXPECT_EQ(names, expected);
    for (const auto &rule : expected)
        EXPECT_FALSE(analyzer.describe(rule).empty());
}

TEST(Analyzer, DisableDropsOneRule)
{
    Analyzer analyzer;
    analyzer.disable("dac-nolint-naked");
    const auto report =
        analyzer.analyzeTexts({{"a.cc", "// NOLINT\n"}});
    EXPECT_TRUE(report.findings.empty());
}

TEST(Analyzer, EnableOnlyRestrictsToNamedRules)
{
    Analyzer analyzer;
    analyzer.enableOnly({"dac-nolint-naked"});
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
    const auto report = analyzer.analyzeTexts(files);
    // The uncovered switch would fire dac-enum-switch; only the bare
    // marker survives the restriction.
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "dac-nolint-naked");
}

TEST(Analyzer, FindingsSortedByFileThenLine)
{
    const Analyzer analyzer;
    // Files handed over in reverse path order; the report re-sorts.
    const Files files = {
        {"b.cc", "// NOLINT\n// NOLINT\n"},
        {"a.cc", "// NOLINT\n"},
    };
    const auto report = analyzer.analyzeTexts(files);
    ASSERT_EQ(report.findings.size(), 3u);
    EXPECT_EQ(report.findings[0].file, "a.cc");
    EXPECT_EQ(report.findings[1].file, "b.cc");
    EXPECT_EQ(report.findings[1].line, 1u);
    EXPECT_EQ(report.findings[2].line, 2u);
    EXPECT_EQ(report.fileCount, 2u);
}

TEST(Analyzer, BareNolintCannotSuppressItsOwnFinding)
{
    const Analyzer analyzer;
    const auto report =
        analyzer.analyzeTexts({{"a.cc", "// NOLINT\n"}});
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].rule, "dac-nolint-naked");
}

TEST(Analyzer, NamedSuppressionSilencesTheNakedFinding)
{
    const Analyzer analyzer;
    const auto report = analyzer.analyzeTexts(
        {{"a.cc",
          "// NOLINT(dac-nolint-naked): grandfathered bare marker\n"}});
    EXPECT_TRUE(report.findings.empty());
}

TEST(RenderJson, CarriesTheAnalyzerToolName)
{
    const Analyzer analyzer;
    const auto report =
        analyzer.analyzeTexts({{"a.cc", "// NOLINT\n"}});
    const std::string json = renderJson(report, "dac-analyze");
    EXPECT_NE(json.find("\"tool\": \"dac-analyze\""),
              std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"dac-nolint-naked\""),
              std::string::npos);
}

TEST(RenderSarif, EmitsSchemaDriverAndPhysicalLocations)
{
    const Analyzer analyzer;
    const auto report =
        analyzer.analyzeTexts({{"src/net/x.cc", "// NOLINT\n"}});
    const std::string sarif = renderSarif(report, "dac-analyze");
    EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("\"name\": \"dac-analyze\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"ruleId\": \"dac-nolint-naked\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"uri\": \"src/net/x.cc\""),
              std::string::npos);
    EXPECT_NE(sarif.find("\"startLine\": 1"), std::string::npos);
}

TEST(RenderSarif, EmptyReportIsStillAValidRun)
{
    const std::string sarif = renderSarif(LintReport{}, "dac-analyze");
    EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
}

/** A tree on disk exercising the load-and-summarize path. Each test
 *  gets its own directory because ctest runs the tests as concurrent
 *  processes: with a shared one, one test's TearDown deletes files
 *  the other is still reading. */
class AnalyzerDiskFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        char dirTemplate[] = "/tmp/dac-analyze-XXXXXX";
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

TEST_F(AnalyzerDiskFixture, ParallelRunMatchesSerialRun)
{
    const Analyzer analyzer;
    const auto serial = analyzer.run({root.string()}, nullptr);
    service::ThreadPool pool(4);
    const auto parallel = analyzer.run({root.string()}, &pool);

    ASSERT_EQ(serial.findings.size(), 2u);
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
    const Linter linter;
    const auto serial = linter.run({root.string()}, nullptr);
    service::ThreadPool pool(4);
    const auto parallel = linter.run({root.string()}, &pool);

    ASSERT_EQ(parallel.findings.size(), serial.findings.size());
    EXPECT_EQ(parallel.fileCount, serial.fileCount);
    for (size_t i = 0; i < serial.findings.size(); ++i) {
        EXPECT_EQ(parallel.findings[i].file, serial.findings[i].file);
        EXPECT_EQ(parallel.findings[i].line, serial.findings[i].line);
    }
}

} // namespace
} // namespace dac::analysis
