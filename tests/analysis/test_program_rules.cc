/**
 * @file
 * Golden fixtures for the dac-lint program rules. Each fixture is
 * a small multi-file program fed through Checker::checkTexts();
 * the assertions pin not just that a rule fires but where, and that
 * the witness text carries the cross-file path a reader needs to act
 * on the finding without re-running the analysis.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/checker.h"

namespace dac::analysis {
namespace {

using Files = std::vector<std::pair<std::string, std::string>>;

/** Run exactly one rule over the fixture files. */
std::vector<Finding>
analyzeWith(const std::string &rule, const Files &files)
{
    Checker checker;
    checker.enableOnly({rule});
    return checker.checkTexts(files).findings;
}

bool
mentions(const Finding &f, const std::string &needle)
{
    return f.message.find(needle) != std::string::npos;
}

// ---- dac-lock-order ---------------------------------------------------

TEST(LockOrderRule, CrossFileCycleReportsBothAcquisitionSites)
{
    // cache_a.cc takes shardMu then statsMu; cache_b.cc takes them in
    // the opposite order. Neither file is wrong in isolation — only
    // the merged graph shows the deadlock.
    const Files files = {
        {"cache_a.cc",
         "struct Cache {\n"
         "    std::mutex shardMu;\n"
         "    std::mutex statsMu;\n"
         "};\n"
         "void Cache::refresh() {\n"
         "    std::lock_guard<std::mutex> a(shardMu);\n"
         "    std::lock_guard<std::mutex> b(statsMu);\n"
         "}\n"},
        {"cache_b.cc",
         "void Cache::report() {\n"
         "    std::lock_guard<std::mutex> a(statsMu);\n"
         "    std::lock_guard<std::mutex> b(shardMu);\n"
         "}\n"},
    };
    const auto findings = analyzeWith("dac-lock-order", files);
    ASSERT_EQ(findings.size(), 1u);
    const Finding &f = findings[0];
    EXPECT_EQ(f.rule, "dac-lock-order");
    EXPECT_TRUE(mentions(f, "lock-order cycle:"));
    EXPECT_TRUE(mentions(f, "Cache::shardMu"));
    EXPECT_TRUE(mentions(f, "Cache::statsMu"));
    // The witness names both acquisition sites, one per file.
    EXPECT_TRUE(mentions(f, "cache_a.cc:7 (Cache::refresh)"));
    EXPECT_TRUE(mentions(f, "cache_b.cc:3 (Cache::report)"));
}

TEST(LockOrderRule, IndirectEdgeThroughCallShowsTheCallPath)
{
    // update() holds tableMu across a call into another file that
    // takes entryMu; scan() orders them the other way. The witness
    // must spell out the call hop, not just the endpoints.
    const Files files = {
        {"reg_a.cc",
         "struct Reg {\n"
         "    std::mutex tableMu;\n"
         "    std::mutex entryMu;\n"
         "};\n"
         "void Reg::update() {\n"
         "    std::lock_guard<std::mutex> g(tableMu);\n"
         "    touchEntry();\n"
         "}\n"},
        {"reg_b.cc",
         "void Reg::touchEntry() {\n"
         "    std::lock_guard<std::mutex> g(entryMu);\n"
         "}\n"
         "void Reg::scan() {\n"
         "    std::lock_guard<std::mutex> a(entryMu);\n"
         "    std::lock_guard<std::mutex> b(tableMu);\n"
         "}\n"},
    };
    const auto findings = analyzeWith("dac-lock-order", files);
    ASSERT_EQ(findings.size(), 1u);
    const Finding &f = findings[0];
    EXPECT_TRUE(mentions(f, "via Reg::update calls Reg::touchEntry"));
    EXPECT_TRUE(mentions(f, "Reg::entryMu acquired in Reg::touchEntry"));
    EXPECT_TRUE(mentions(f, "reg_b.cc:2"));
}

TEST(LockOrderRule, ConsistentOrderAcrossFilesIsClean)
{
    const Files files = {
        {"cache_a.cc",
         "struct Cache {\n"
         "    std::mutex shardMu;\n"
         "    std::mutex statsMu;\n"
         "};\n"
         "void Cache::refresh() {\n"
         "    std::lock_guard<std::mutex> a(shardMu);\n"
         "    std::lock_guard<std::mutex> b(statsMu);\n"
         "}\n"},
        {"cache_b.cc",
         "void Cache::report() {\n"
         "    std::lock_guard<std::mutex> a(shardMu);\n"
         "    std::lock_guard<std::mutex> b(statsMu);\n"
         "}\n"},
    };
    EXPECT_TRUE(analyzeWith("dac-lock-order", files).empty());
}

// ---- dac-blocking-in-loop ---------------------------------------------

TEST(BlockingInLoopRule, DirectSleepInLoopCallback)
{
    const Files files = {
        {"net/server.cc",
         "void Server::start() {\n"
         "    loop.runInLoop([this] {\n"
         "        std::this_thread::sleep_for(delay);\n"
         "    });\n"
         "}\n"},
    };
    const auto findings = analyzeWith("dac-blocking-in-loop", files);
    ASSERT_EQ(findings.size(), 1u);
    const Finding &f = findings[0];
    EXPECT_EQ(f.line, 3u);
    EXPECT_TRUE(mentions(f, "event-loop callback"));
    EXPECT_TRUE(mentions(f, "Server::start::lambda@2"));
    EXPECT_TRUE(mentions(f, "this_thread::sleep_for"));
}

TEST(BlockingInLoopRule, BlockReachedThroughSameModuleCallee)
{
    // The callback itself is clean; the blocking op sits in another
    // translation unit of the same module, one call away. The finding
    // lands at the operation, attributed to the loop-callback root.
    const Files files = {
        {"net/conn.cc",
         "void Conn::arm() {\n"
         "    loop.watch(fd, [this] { onReadable(); });\n"
         "}\n"},
        {"net/frame_util.cc",
         "void Conn::onReadable() {\n"
         "    std::this_thread::sleep_for(delay);\n"
         "}\n"},
    };
    const auto findings = analyzeWith("dac-blocking-in-loop", files);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "net/frame_util.cc");
    EXPECT_EQ(findings[0].line, 2u);
    EXPECT_TRUE(mentions(findings[0], "Conn::arm::lambda@2"));
}

TEST(BlockingInLoopRule, CrossModuleCallCarriesBlockingWitness)
{
    // Calls that leave the module are not walked into; they are
    // checked against the may-block fixpoint and the finding points
    // at the call site with the chain down to the concrete block.
    const Files files = {
        {"net/server.cc",
         "void Server::tick() {\n"
         "    loop.runInLoop([this] { flushStats(); });\n"
         "}\n"},
        {"obs/stats.cc",
         "void Server::flushStats() {\n"
         "    statsFuture.get();\n"
         "}\n"},
    };
    const auto findings = analyzeWith("dac-blocking-in-loop", files);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].file, "net/server.cc");
    EXPECT_EQ(findings[0].line, 2u);
    EXPECT_TRUE(mentions(findings[0], "future::get"));
    EXPECT_TRUE(mentions(findings[0], "obs/stats.cc:2"));
}

TEST(BlockingInLoopRule, PoolHandoffDoesNotTaintTheLoop)
{
    // Work posted to a pool runs on a worker thread; the loop thread
    // never blocks, so the join inside the posted lambda's callee is
    // not a loop finding.
    const Files files = {
        {"net/server.cc",
         "void Server::pump() {\n"
         "    loop.runInLoop([this] {\n"
         "        pool.post([this] { slowJoin(); });\n"
         "    });\n"
         "}\n"
         "void Server::slowJoin() {\n"
         "    workerThread.join();\n"
         "}\n"},
    };
    EXPECT_TRUE(analyzeWith("dac-blocking-in-loop", files).empty());
}

TEST(BlockingInLoopRule, SuppressedOpDoesNotPropagateAcrossTUs)
{
    // A reviewed NOLINT at the blocking operation stops the may-block
    // taint at its source: callers in other files stay clean instead
    // of needing their own suppressions.
    const Files files = {
        {"net/server.cc",
         "void Server::tick() {\n"
         "    loop.runInLoop([this] { audit(); });\n"
         "}\n"},
        {"obs/audit.cc",
         "void Server::audit() {\n"
         "    // NOLINTNEXTLINE(dac-blocking-in-loop): bounded gate\n"
         "    std::this_thread::sleep_for(delay);\n"
         "}\n"},
    };
    EXPECT_TRUE(analyzeWith("dac-blocking-in-loop", files).empty());
}

TEST(BlockingInLoopRule, SeqlockWriterIsARoot)
{
    const Files files = {
        {"obs/recorder.cc",
         "void Recorder::publish() {\n"
         "    slot.seq.store(1);\n"
         "    std::this_thread::sleep_for(delay);\n"
         "}\n"},
    };
    const auto findings = analyzeWith("dac-blocking-in-loop", files);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 3u);
    EXPECT_TRUE(mentions(findings[0], "seqlock writer"));
    EXPECT_TRUE(mentions(findings[0], "Recorder::publish"));
}

// ---- dac-enum-switch --------------------------------------------------

/** Enum in a header, switch in another file: the cross-TU shape. */
const char *const kMsgTypeHeader =
    "enum class MsgType { Ping, Pong, Error };\n";

TEST(EnumSwitchRule, MissingEnumeratorWithoutDefault)
{
    const Files files = {
        {"proto.h", kMsgTypeHeader},
        {"dispatch.cc",
         "void dispatch(MsgType type) {\n"
         "    switch (type) {\n"
         "    case MsgType::Ping:\n"
         "        break;\n"
         "    case MsgType::Pong:\n"
         "        break;\n"
         "    }\n"
         "}\n"},
    };
    const auto findings = analyzeWith("dac-enum-switch", files);
    ASSERT_EQ(findings.size(), 1u);
    const Finding &f = findings[0];
    EXPECT_EQ(f.file, "dispatch.cc");
    EXPECT_EQ(f.line, 2u);
    EXPECT_TRUE(mentions(f, "covers 2 of 3"));
    EXPECT_TRUE(mentions(f, "missing: MsgType::Error"));
    EXPECT_TRUE(mentions(f, "defined at proto.h:1"));
    EXPECT_TRUE(mentions(f, "no default either"));
}

TEST(EnumSwitchRule, DefaultWithoutRationaleStillFires)
{
    const Files files = {
        {"proto.h", kMsgTypeHeader},
        {"dispatch.cc",
         "void dispatch(MsgType type) {\n"
         "    switch (type) {\n"
         "    case MsgType::Ping:\n"
         "        break;\n"
         "    default:\n"
         "        break;\n"
         "    }\n"
         "}\n"},
    };
    const auto findings = analyzeWith("dac-enum-switch", files);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_TRUE(mentions(findings[0],
                         "add a NOLINT(dac-enum-switch) rationale"));
}

TEST(EnumSwitchRule, NamedSuppressionOnSwitchLineIsHonored)
{
    const Files files = {
        {"proto.h", kMsgTypeHeader},
        {"dispatch.cc",
         "void dispatch(MsgType type) {\n"
         "    switch (type) { // NOLINT(dac-enum-switch): fwd compat\n"
         "    case MsgType::Ping:\n"
         "        break;\n"
         "    default:\n"
         "        break;\n"
         "    }\n"
         "}\n"},
    };
    EXPECT_TRUE(analyzeWith("dac-enum-switch", files).empty());
}

TEST(EnumSwitchRule, FullCoverageIsClean)
{
    const Files files = {
        {"proto.h", kMsgTypeHeader},
        {"dispatch.cc",
         "void dispatch(MsgType type) {\n"
         "    switch (type) {\n"
         "    case MsgType::Ping:\n"
         "    case MsgType::Pong:\n"
         "    case MsgType::Error:\n"
         "        break;\n"
         "    }\n"
         "}\n"},
    };
    EXPECT_TRUE(analyzeWith("dac-enum-switch", files).empty());
}

// ---- dac-payload-bounds -----------------------------------------------

TEST(PayloadBoundsRule, UncheckedByteAccessInNetFile)
{
    const Files files = {
        {"net/parse.cc",
         "uint32_t peek(const uint8_t *payload) {\n"
         "    return payload[0];\n"
         "}\n"},
    };
    const auto findings = analyzeWith("dac-payload-bounds", files);
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].line, 2u);
    EXPECT_TRUE(mentions(findings[0], "unchecked access"));
    EXPECT_TRUE(mentions(findings[0], "'payload'"));
}

TEST(PayloadBoundsRule, GuardedAccessIsClean)
{
    const Files files = {
        {"net/parse.cc",
         "uint32_t peek(const uint8_t *payload, size_t len) {\n"
         "    DAC_ASSERT(len >= 4, \"short frame\");\n"
         "    return payload[0];\n"
         "}\n"
         "uint32_t peek2(const uint8_t *data, size_t avail) {\n"
         "    if (avail < 4)\n"
         "        return 0;\n"
         "    return data[0];\n"
         "}\n"},
    };
    EXPECT_TRUE(analyzeWith("dac-payload-bounds", files).empty());
}

TEST(PayloadBoundsRule, MagicMebibyteLiteralInAnySpelling)
{
    const Files files = {
        {"net/limits.cc",
         "void Conn::cap() {\n"
         "    buffer.reserve(1048576);\n"
         "    limit = 1 << 20;\n"
         "}\n"},
    };
    const auto findings = analyzeWith("dac-payload-bounds", files);
    ASSERT_EQ(findings.size(), 2u);
    EXPECT_EQ(findings[0].line, 2u);
    EXPECT_TRUE(mentions(findings[0], "kMaxPayloadBytes"));
    EXPECT_EQ(findings[1].line, 3u);
}

TEST(PayloadBoundsRule, NamedCeilingDefinitionIsExempt)
{
    const Files files = {
        {"net/frame_fixture.h",
         "constexpr size_t kMaxPayloadBytes = 1048576;\n"
         "void Conn::apply() {\n"
         "    buffer.reserve(kMaxPayloadBytes);\n"
         "}\n"},
    };
    EXPECT_TRUE(analyzeWith("dac-payload-bounds", files).empty());
}

TEST(PayloadBoundsRule, NonWireLayersAreOutOfScope)
{
    // The same unchecked access outside src/net is someone else's
    // invariant; the rule must stay scoped to the wire layer.
    const Files files = {
        {"conf/parse.cc",
         "uint32_t peek(const uint8_t *payload) {\n"
         "    return payload[0];\n"
         "}\n"},
    };
    EXPECT_TRUE(analyzeWith("dac-payload-bounds", files).empty());
}

} // namespace
} // namespace dac::analysis
