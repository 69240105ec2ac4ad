/**
 * @file
 * Golden fixtures for the per-file indexer: each snippet pins what
 * summarizeFile() extracts — function identities, call sites, lock
 * scopes with held sets, blocking operations, lambda roles, enum and
 * switch inventory, and concurrency-relevant class members. These are
 * the building blocks the cross-TU rules trust; a drift here shows up
 * as whole-program false positives or silence.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/indexer.h"

namespace dac::analysis {
namespace {

FileSummary
summarize(const std::string &path, const std::string &text)
{
    SourceFile file = SourceFile::fromString(path, text);
    const std::vector<Token> tokens = lex(file);
    return summarizeFile(std::move(file), tokens);
}

const FunctionSummary *
findFn(const FileSummary &s, const std::string &qualified)
{
    for (const FunctionSummary &fn : s.functions) {
        if (fn.qualified == qualified)
            return &fn;
    }
    return nullptr;
}

bool
hasCall(const FunctionSummary &fn, const std::string &name)
{
    for (const CallSite &site : fn.calls) {
        if (site.name == name)
            return true;
    }
    return false;
}

TEST(Indexer, FreeFunctionWithCallSites)
{
    const auto s = summarize("a.cc",
                             "void pump() {\n"
                             "    drain();\n"
                             "    flush(1, 2);\n"
                             "}\n");
    const FunctionSummary *fn = findFn(s, "pump");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->line, 1u);
    EXPECT_EQ(fn->bodyEndLine, 4u);
    EXPECT_FALSE(fn->isLambda);
    EXPECT_TRUE(hasCall(*fn, "drain"));
    EXPECT_TRUE(hasCall(*fn, "flush"));
}

TEST(Indexer, OutOfClassMethodDefinitionGetsOwner)
{
    const auto s = summarize("a.cc",
                             "void Server::start() {\n"
                             "    listen();\n"
                             "}\n");
    const FunctionSummary *fn = findFn(s, "Server::start");
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(fn->owner, "Server");
    EXPECT_EQ(fn->name, "start");
}

TEST(Indexer, EnumClassDefinitionCaptured)
{
    const auto s = summarize(
        "proto.h",
        "enum class Verdict : uint8_t { Accept, Reject = 7, Retry };\n");
    ASSERT_EQ(s.enums.size(), 1u);
    EXPECT_EQ(s.enums[0].name, "Verdict");
    EXPECT_EQ(s.enums[0].line, 1u);
    const std::vector<std::string> expected = {"Accept", "Reject",
                                               "Retry"};
    EXPECT_EQ(s.enums[0].enumerators, expected);
}

TEST(Indexer, ClassConcurrencyMembersRecorded)
{
    const auto s = summarize("cache.h",
                             "class Cache {\n"
                             "    std::mutex shardMu;\n"
                             "    std::shared_mutex statsMu;\n"
                             "    std::condition_variable space;\n"
                             "    std::thread reaper;\n"
                             "    int count = 0;\n"
                             "};\n");
    const auto it = s.classes.find("Cache");
    ASSERT_NE(it, s.classes.end());
    const std::vector<std::string> mutexes = {"shardMu", "statsMu"};
    EXPECT_EQ(it->second.mutexMembers, mutexes);
    EXPECT_EQ(it->second.cvMembers,
              std::vector<std::string>{"space"});
    EXPECT_EQ(it->second.threadMembers,
              std::vector<std::string>{"reaper"});
}

TEST(Indexer, NestedGuardsRecordHeldSets)
{
    const auto s = summarize(
        "cache.cc",
        "void Cache::refresh() {\n"
        "    std::lock_guard<std::mutex> a(shardMu);\n"
        "    std::lock_guard<std::mutex> b(statsMu);\n"
        "}\n");
    const FunctionSummary *fn = findFn(s, "Cache::refresh");
    ASSERT_NE(fn, nullptr);
    ASSERT_EQ(fn->locks.size(), 2u);
    // Bare member locks are qualified with the owning class so the
    // same mutex has one identity across translation units.
    EXPECT_EQ(fn->locks[0].lockId, "Cache::shardMu");
    EXPECT_TRUE(fn->locks[0].locksHeld.empty());
    EXPECT_EQ(fn->locks[1].lockId, "Cache::statsMu");
    EXPECT_EQ(fn->locks[1].locksHeld,
              std::vector<std::string>{"Cache::shardMu"});
}

TEST(Indexer, GuardScopeEndsAtClosingBrace)
{
    const auto s = summarize("cache.cc",
                             "void Cache::tick() {\n"
                             "    {\n"
                             "        std::lock_guard<std::mutex> g(mu);\n"
                             "    }\n"
                             "    poll();\n"
                             "}\n");
    const FunctionSummary *fn = findFn(s, "Cache::tick");
    ASSERT_NE(fn, nullptr);
    for (const CallSite &site : fn->calls) {
        if (site.name == "poll") {
            EXPECT_TRUE(site.locksHeld.empty());
        }
    }
}

TEST(Indexer, EarlyUnlockReleasesTheGuard)
{
    const auto s = summarize("cache.cc",
                             "void Cache::tick() {\n"
                             "    std::unique_lock<std::mutex> g(mu);\n"
                             "    g.unlock();\n"
                             "    poll();\n"
                             "}\n");
    const FunctionSummary *fn = findFn(s, "Cache::tick");
    ASSERT_NE(fn, nullptr);
    for (const CallSite &site : fn->calls) {
        if (site.name == "poll") {
            EXPECT_TRUE(site.locksHeld.empty());
        }
    }
}

TEST(Indexer, DeferLockIsNotAnAcquisition)
{
    const auto s = summarize(
        "cache.cc",
        "void Cache::tick() {\n"
        "    std::unique_lock<std::mutex> g(mu, std::defer_lock);\n"
        "}\n");
    const FunctionSummary *fn = findFn(s, "Cache::tick");
    ASSERT_NE(fn, nullptr);
    EXPECT_TRUE(fn->locks.empty());
}

TEST(Indexer, LambdaPassedToRunInLoopIsLoopCallback)
{
    const auto s = summarize(
        "server.cc",
        "void Server::start() {\n"
        "    loop.runInLoop([this] { handleReadable(); });\n"
        "}\n");
    const FunctionSummary *lam = findFn(s, "Server::start::lambda@2");
    ASSERT_NE(lam, nullptr);
    EXPECT_TRUE(lam->isLambda);
    EXPECT_EQ(lam->role, LambdaRole::LoopCallback);
    EXPECT_EQ(lam->enclosing, "Server::start");
    EXPECT_TRUE(hasCall(*lam, "handleReadable"));
}

TEST(Indexer, LambdaPassedToPostIsPoolTaskWithoutInlineEdge)
{
    const auto s = summarize("server.cc",
                             "void Server::flush() {\n"
                             "    pool.post([this] { slowWrite(); });\n"
                             "}\n");
    const FunctionSummary *lam = findFn(s, "Server::flush::lambda@2");
    ASSERT_NE(lam, nullptr);
    EXPECT_EQ(lam->role, LambdaRole::PoolTask);
    // The pool runs the body on its own thread: the enclosing
    // function must not gain a synchronous call edge into it.
    const FunctionSummary *fn = findFn(s, "Server::flush");
    ASSERT_NE(fn, nullptr);
    EXPECT_FALSE(hasCall(*fn, "lambda@2"));
}

TEST(Indexer, StoredLambdaWithoutSinkStaysInlineWithCallEdge)
{
    const auto s = summarize("server.cc",
                             "void Server::misc() {\n"
                             "    auto body = [this] { helper(); };\n"
                             "    body();\n"
                             "}\n");
    const FunctionSummary *lam = findFn(s, "Server::misc::lambda@2");
    ASSERT_NE(lam, nullptr);
    EXPECT_EQ(lam->role, LambdaRole::Inline);
    const FunctionSummary *fn = findFn(s, "Server::misc");
    ASSERT_NE(fn, nullptr);
    EXPECT_TRUE(hasCall(*fn, "lambda@2"));
}

TEST(Indexer, NamedLambdaRetargetedByLaterPost)
{
    const auto s = summarize(
        "server.cc",
        "void Connection::flush() {\n"
        "    auto task = [this] { slowWrite(); };\n"
        "    pool->post(std::move(task));\n"
        "}\n");
    const FunctionSummary *lam =
        findFn(s, "Connection::flush::lambda@2");
    ASSERT_NE(lam, nullptr);
    // `task` is declared without a sink (Inline at creation) but the
    // later post() hand-off makes it a pool task and severs the
    // provisional inline edge.
    EXPECT_EQ(lam->role, LambdaRole::PoolTask);
    const FunctionSummary *fn = findFn(s, "Connection::flush");
    ASSERT_NE(fn, nullptr);
    EXPECT_FALSE(hasCall(*fn, "lambda@2"));
}

TEST(Indexer, ThreadConstructorLambdaIsDetached)
{
    const auto s = summarize(
        "pool.cc",
        "void Pool::spawn() {\n"
        "    workers.emplace_back([this] { runWorker(); });\n"
        "}\n");
    const FunctionSummary *lam = findFn(s, "Pool::spawn::lambda@2");
    ASSERT_NE(lam, nullptr);
    EXPECT_EQ(lam->role, LambdaRole::DetachedThread);
}

TEST(Indexer, BlockingOperationsClassified)
{
    const auto s = summarize(
        "worker.cc",
        "void Worker::pace() {\n"
        "    std::this_thread::sleep_for(delay);\n"
        "}\n"
        "void Worker::collect() {\n"
        "    auto v = resultFuture.get();\n"
        "}\n"
        "void Worker::drain() {\n"
        "    std::unique_lock<std::mutex> lk(mu);\n"
        "    space.wait(lk);\n"
        "}\n");
    const FunctionSummary *pace = findFn(s, "Worker::pace");
    ASSERT_NE(pace, nullptr);
    ASSERT_EQ(pace->blocking.size(), 1u);
    EXPECT_EQ(pace->blocking[0].what, "this_thread::sleep_for");

    const FunctionSummary *collect = findFn(s, "Worker::collect");
    ASSERT_NE(collect, nullptr);
    ASSERT_EQ(collect->blocking.size(), 1u);
    EXPECT_EQ(collect->blocking[0].what, "future::get");
    EXPECT_EQ(collect->blocking[0].detail, "resultFuture");

    const FunctionSummary *drain = findFn(s, "Worker::drain");
    ASSERT_NE(drain, nullptr);
    ASSERT_EQ(drain->blocking.size(), 1u);
    EXPECT_EQ(drain->blocking[0].what, "condition_variable::wait");
}

TEST(Indexer, NonBlockingMemberGetIsNotFlagged)
{
    // `.get()` only blocks on future-like receivers; a plain getter
    // or smart-pointer get() must not count.
    const auto s = summarize("worker.cc",
                             "void Worker::peek() {\n"
                             "    auto *p = holder.get();\n"
                             "}\n");
    const FunctionSummary *fn = findFn(s, "Worker::peek");
    ASSERT_NE(fn, nullptr);
    EXPECT_TRUE(fn->blocking.empty());
}

TEST(Indexer, SeqlockWriterDetectedFromSeqStore)
{
    const auto s = summarize("recorder.cc",
                             "void Recorder::publish() {\n"
                             "    slot.seq.store(1);\n"
                             "}\n"
                             "void Recorder::read() {\n"
                             "    auto v = slot.seq.load();\n"
                             "}\n");
    const FunctionSummary *pub = findFn(s, "Recorder::publish");
    ASSERT_NE(pub, nullptr);
    EXPECT_TRUE(pub->seqlockWriter);
    const FunctionSummary *rd = findFn(s, "Recorder::read");
    ASSERT_NE(rd, nullptr);
    EXPECT_FALSE(rd->seqlockWriter);
}

TEST(Indexer, SwitchCoverageRecorded)
{
    const auto s = summarize("dispatch.cc",
                             "void dispatch(MsgType type) {\n"
                             "    switch (type) {\n"
                             "    case MsgType::Ping:\n"
                             "        break;\n"
                             "    case MsgType::Pong:\n"
                             "        break;\n"
                             "    default:\n"
                             "        break;\n"
                             "    }\n"
                             "}\n");
    ASSERT_EQ(s.switches.size(), 1u);
    const SwitchSite &sw = s.switches[0];
    EXPECT_EQ(sw.enumName, "MsgType");
    EXPECT_EQ(sw.line, 2u);
    EXPECT_TRUE(sw.hasDefault);
    EXPECT_EQ(sw.function, "dispatch");
    const std::vector<std::string> covered = {"Ping", "Pong"};
    EXPECT_EQ(sw.covered, covered);
}

TEST(Indexer, DisabledRegionContributesNothing)
{
    const auto s = summarize("a.cc",
                             "#if 0\n"
                             "void ghost() {\n"
                             "    std::this_thread::sleep_for(x);\n"
                             "}\n"
                             "#endif\n"
                             "void real() {}\n");
    EXPECT_EQ(findFn(s, "ghost"), nullptr);
    EXPECT_NE(findFn(s, "real"), nullptr);
}

} // namespace
} // namespace dac::analysis
