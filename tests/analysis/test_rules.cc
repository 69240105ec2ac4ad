/**
 * @file
 * Golden fixtures for the dac-lint rule pack: each known-bad snippet
 * must produce the expected rule at the expected line, and each
 * sanctioned idiom from the tree must stay clean.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/checker.h"

namespace dac::analysis {
namespace {

std::vector<Finding>
lintAt(const std::string &path, const std::string &text)
{
    const Checker checker;
    return checker.checkTexts({{path, text}}).findings;
}

std::vector<Finding>
lint(const std::string &text)
{
    return lintAt("src/dac/fixture.cc", text);
}

bool
has(const std::vector<Finding> &findings, const std::string &rule,
    size_t line)
{
    for (const auto &f : findings) {
        if (f.rule == rule && f.line == line)
            return true;
    }
    return false;
}

size_t
countRule(const std::vector<Finding> &findings, const std::string &rule)
{
    size_t n = 0;
    for (const auto &f : findings)
        n += f.rule == rule ? 1 : 0;
    return n;
}

// ---------------------------------------------------------------- span

TEST(SpanPairing, TemporaryScopedSpanIsFlagged)
{
    const auto f = lint("void f() {\n"
                        "    obs::ScopedSpan(\"phase\");\n"
                        "}\n");
    EXPECT_TRUE(has(f, "dac-span-pairing", 2));
}

TEST(SpanPairing, TemporaryParentScopeIsFlagged)
{
    const auto f = lint("void f(uint64_t parent) {\n"
                        "    obs::ParentScope(parent);\n"
                        "    work();\n"
                        "}\n");
    EXPECT_TRUE(has(f, "dac-span-pairing", 2));
}

TEST(SpanPairing, NamedSpanIsClean)
{
    const auto f = lint("void f() {\n"
                        "    obs::ScopedSpan span(\"phase\");\n"
                        "    obs::ParentScope scope(span.id());\n"
                        "}\n");
    EXPECT_EQ(countRule(f, "dac-span-pairing"), 0u);
}

TEST(SpanPairing, DeclarationsAreClean)
{
    const auto f = lint("class ScopedSpan {\n"
                        "  public:\n"
                        "    explicit ScopedSpan(const char *name);\n"
                        "    ScopedSpan(const ScopedSpan &) = delete;\n"
                        "    ~ScopedSpan();\n"
                        "};\n");
    EXPECT_EQ(countRule(f, "dac-span-pairing"), 0u);
}

TEST(SpanPairing, ConstructorDefinitionIsClean)
{
    const auto f = lint("ParentScope::ParentScope(uint64_t parentSpanId)\n"
                        "{\n"
                        "    previous = parentSpanId;\n"
                        "}\n");
    EXPECT_EQ(countRule(f, "dac-span-pairing"), 0u);
}

TEST(SpanPairing, NolintSuppresses)
{
    const auto f = lint(
        "void f() {\n"
        "    obs::ScopedSpan(\"x\"); // NOLINT(dac-span-pairing)\n"
        "}\n");
    EXPECT_EQ(countRule(f, "dac-span-pairing"), 0u);
}

// ----------------------------------------------------------------- rng

TEST(RngDiscipline, RawEngineIsFlagged)
{
    const auto f = lint("std::mt19937 gen(42);\n");
    EXPECT_TRUE(has(f, "dac-rng-discipline", 1));
}

TEST(RngDiscipline, RandomDeviceIsFlagged)
{
    const auto f = lint("void seed() {\n"
                        "    std::random_device rd;\n"
                        "    use(rd());\n"
                        "}\n");
    EXPECT_TRUE(has(f, "dac-rng-discipline", 2));
}

TEST(RngDiscipline, RngImplementationFileIsExempt)
{
    const auto f = lintAt("src/support/random.cc",
                          "std::mt19937_64 engine;\n");
    EXPECT_EQ(countRule(f, "dac-rng-discipline"), 0u);
}

TEST(RngDiscipline, CapturedRngDrawInParallelForIsFlagged)
{
    const auto f = lint("void f(ThreadPool &pool, Rng &rng) {\n"
                        "    pool.parallelFor(8, [&](size_t i) {\n"
                        "        values[i] = rng.uniform();\n"
                        "    });\n"
                        "}\n");
    EXPECT_TRUE(has(f, "dac-rng-discipline", 3));
}

TEST(RngDiscipline, PerWorkerSplitStreamIsClean)
{
    const auto f = lint("void f(ThreadPool &pool, const Rng &rng) {\n"
                        "    pool.parallelFor(8, [&](size_t i) {\n"
                        "        auto worker = rng.splitStream(i);\n"
                        "        values[i] = worker.uniform();\n"
                        "    });\n"
                        "}\n");
    EXPECT_EQ(countRule(f, "dac-rng-discipline"), 0u);
}

TEST(RngDiscipline, ForkOfCapturedRngInBodyIsFlagged)
{
    // fork() mutates the parent engine, so calling it per-iteration
    // inside the body races exactly like a direct draw.
    const auto f = lint("void f(ThreadPool &pool, Rng &rng) {\n"
                        "    pool.parallelFor(8, [&](size_t i) {\n"
                        "        auto worker = rng.fork(i);\n"
                        "        values[i] = worker.uniform();\n"
                        "    });\n"
                        "}\n");
    EXPECT_TRUE(has(f, "dac-rng-discipline", 3));
}

TEST(RngDiscipline, DrawOutsideParallelForIsClean)
{
    const auto f = lint("double g(Rng &rng) {\n"
                        "    return rng.uniform();\n"
                        "}\n");
    EXPECT_EQ(countRule(f, "dac-rng-discipline"), 0u);
}

// -------------------------------------------------------------- atomic

TEST(AtomicOrder, BareLoadIsFlagged)
{
    const auto f = lint("uint64_t v() { return counter.load(); }\n");
    EXPECT_TRUE(has(f, "dac-atomic-order", 1));
}

TEST(AtomicOrder, BareFetchAddIsFlagged)
{
    const auto f = lint("void bump() { counter.fetch_add(1); }\n");
    EXPECT_TRUE(has(f, "dac-atomic-order", 1));
}

TEST(AtomicOrder, ExplicitOrderIsClean)
{
    const auto f = lint(
        "void bump() {\n"
        "    counter.fetch_add(1, std::memory_order_relaxed);\n"
        "    flag.store(true, std::memory_order_release);\n"
        "    return done.load(std::memory_order_acquire);\n"
        "}\n");
    EXPECT_EQ(countRule(f, "dac-atomic-order"), 0u);
}

TEST(AtomicOrder, CompareExchangeWithOrdersIsClean)
{
    const auto f = lint(
        "void cas() {\n"
        "    x.compare_exchange_weak(cur, next,\n"
        "                            std::memory_order_acq_rel,\n"
        "                            std::memory_order_acquire);\n"
        "}\n");
    EXPECT_EQ(countRule(f, "dac-atomic-order"), 0u);
}

TEST(AtomicOrder, BareCompareExchangeIsFlagged)
{
    const auto f = lint("void cas() {\n"
                        "    x.compare_exchange_weak(cur, next);\n"
                        "}\n");
    EXPECT_TRUE(has(f, "dac-atomic-order", 2));
}

// ---------------------------------------------------------------- lock

TEST(LockHygiene, ManualLockUnlockIsFlagged)
{
    const auto f = lint("std::mutex m;\n"
                        "void f() {\n"
                        "    m.lock();\n"
                        "    work();\n"
                        "    m.unlock();\n"
                        "}\n");
    EXPECT_TRUE(has(f, "dac-lock-hygiene", 3));
    EXPECT_TRUE(has(f, "dac-lock-hygiene", 5));
}

TEST(LockHygiene, UniqueLockUnlockIsClean)
{
    // unique_lock still releases on unwind; early unlock() is the
    // sanctioned way to shorten a critical section (model_cache.cc).
    const auto f = lint("std::mutex m;\n"
                        "void f() {\n"
                        "    std::unique_lock<std::mutex> lk(m);\n"
                        "    state = next;\n"
                        "    lk.unlock();\n"
                        "    notify();\n"
                        "}\n");
    EXPECT_EQ(countRule(f, "dac-lock-hygiene"), 0u);
}

TEST(LockHygiene, BlockingCallInsideGuardScopeIsFlagged)
{
    const auto f = lint("std::mutex m;\n"
                        "void f(ThreadPool &pool) {\n"
                        "    std::lock_guard<std::mutex> lock(m);\n"
                        "    pool.parallelFor(4, body);\n"
                        "}\n");
    EXPECT_TRUE(has(f, "dac-lock-hygiene", 4));
}

TEST(LockHygiene, BlockingCallAfterGuardScopeIsClean)
{
    const auto f = lint("std::mutex m;\n"
                        "void f(ThreadPool &pool) {\n"
                        "    {\n"
                        "        std::lock_guard<std::mutex> lock(m);\n"
                        "        ++counter;\n"
                        "    }\n"
                        "    pool.parallelFor(4, body);\n"
                        "}\n");
    EXPECT_EQ(countRule(f, "dac-lock-hygiene"), 0u);
}

TEST(LockHygiene, FutureGetInsideGuardScopeIsFlagged)
{
    const auto f = lint("std::mutex m;\n"
                        "void f(std::future<int> &fut) {\n"
                        "    std::lock_guard<std::mutex> lock(m);\n"
                        "    value = fut.get();\n"
                        "}\n");
    EXPECT_TRUE(has(f, "dac-lock-hygiene", 4));
}

// ------------------------------------------------------------- include

TEST(IncludeHygiene, UpwardIncludeIsFlagged)
{
    const auto f = lintAt("src/conf/space.cc",
                          "#include \"service/service.h\"\n");
    EXPECT_TRUE(has(f, "dac-include-hygiene", 1));
}

TEST(IncludeHygiene, SameRankSiblingIncludeIsFlagged)
{
    const auto f = lintAt("src/obs/tracer.cc",
                          "#include \"cluster/cluster.h\"\n");
    EXPECT_TRUE(has(f, "dac-include-hygiene", 1));
}

TEST(IncludeHygiene, DownwardIncludeIsClean)
{
    const auto f = lintAt("src/service/service.cc",
                          "#include \"conf/config.h\"\n"
                          "#include \"support/logging.h\"\n");
    EXPECT_EQ(countRule(f, "dac-include-hygiene"), 0u);
}

TEST(IncludeHygiene, OwnModuleAndSystemIncludesAreClean)
{
    const auto f = lintAt("src/conf/space.cc",
                          "#include <mutex>\n"
                          "#include \"conf/param.h\"\n");
    EXPECT_EQ(countRule(f, "dac-include-hygiene"), 0u);
}

TEST(IncludeHygiene, FilesOutsideSrcAreExempt)
{
    const auto f = lintAt("examples/tuning_server.cpp",
                          "#include \"service/service.h\"\n");
    EXPECT_EQ(countRule(f, "dac-include-hygiene"), 0u);
}

TEST(IncludeHygiene, IncludesInsideIfZeroAreSkipped)
{
    // An include behind `#if 0` never reaches the compiler, so it
    // cannot create a layering edge.
    const auto f = lintAt("src/conf/space.cc",
                          "#if 0\n"
                          "#include \"service/service.h\"\n"
                          "#endif\n"
                          "#include \"conf/param.h\"\n");
    EXPECT_EQ(countRule(f, "dac-include-hygiene"), 0u);
}

TEST(IncludeHygiene, ElseBranchOfIfZeroIsLive)
{
    // The sibling branch of `#if 0` does compile; an upward include
    // there is a real violation.
    const auto f = lintAt("src/conf/space.cc",
                          "#if 0\n"
                          "#include \"conf/param.h\"\n"
                          "#else\n"
                          "#include \"service/service.h\"\n"
                          "#endif\n");
    EXPECT_TRUE(has(f, "dac-include-hygiene", 4));
}

// --------------------------------------------------------------- units

TEST(Units, MagicGigabyteChainIsFlagged)
{
    const auto f =
        lint("double b = gb * 1024.0 * 1024.0 * 1024.0;\n");
    EXPECT_EQ(countRule(f, "dac-units"), 3u);
    EXPECT_TRUE(has(f, "dac-units", 1));
}

TEST(Units, MagicMicrosecondFactorIsFlagged)
{
    const auto f = lint("double us = sec * 1e6;\n");
    EXPECT_TRUE(has(f, "dac-units", 1));
}

TEST(Units, UnitsHeaderItselfIsExempt)
{
    const auto f = lintAt("src/support/units.h",
                          "constexpr double MiB = 1024.0 * KiB;\n");
    EXPECT_EQ(countRule(f, "dac-units"), 0u);
}

TEST(Units, NonConversionUsesAreClean)
{
    const auto f = lint("constexpr size_t kBufferSize = 1024;\n"
                        "int batch = n % 1024;\n");
    EXPECT_EQ(countRule(f, "dac-units"), 0u);
}

} // namespace
} // namespace dac::analysis
