/** @file Tests for the tracing subsystem: nesting, cross-thread
 *  parenting, determinism under the thread pool, and the
 *  zero-overhead-when-disabled guarantee. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/tracer.h"
#include "service/thread_pool.h"

namespace dac::obs {
namespace {

/** Enables tracing on an empty buffer; restores disabled on exit. */
class TracerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Tracer::instance().setEnabled(true);
        Tracer::instance().clear();
    }

    void
    TearDown() override
    {
        Tracer::instance().setEnabled(false);
        Tracer::instance().clear();
    }

    static const TraceEvent &
    findByName(const TraceLog &log, const std::string &name)
    {
        for (const auto &e : log.events) {
            if (e.name == name)
                return e;
        }
        ADD_FAILURE() << "no event named " << name;
        static TraceEvent none;
        return none;
    }
};

TEST_F(TracerTest, SpansNestViaThreadLocalStack)
{
    {
        ScopedSpan outer("outer");
        {
            ScopedSpan inner("inner");
            ScopedSpan innermost("innermost");
            EXPECT_EQ(currentSpanId(), innermost.id());
        }
        EXPECT_EQ(currentSpanId(), outer.id());
    }
    EXPECT_EQ(currentSpanId(), 0u);

    const auto log = Tracer::instance().snapshot();
    ASSERT_EQ(log.events.size(), 3u);
    const auto &outer = findByName(log, "outer");
    const auto &inner = findByName(log, "inner");
    const auto &innermost = findByName(log, "innermost");
    EXPECT_EQ(outer.parent, 0u);
    EXPECT_EQ(inner.parent, outer.id);
    EXPECT_EQ(innermost.parent, inner.id);
    // A child starts no earlier and ends no later than its parent.
    EXPECT_GE(inner.startSec, outer.startSec);
    EXPECT_LE(inner.startSec + inner.durSec,
              outer.startSec + outer.durSec + 1e-9);
}

TEST_F(TracerTest, InstantsAttachToTheOpenSpan)
{
    {
        ScopedSpan span("work");
        instant("marker", {{"k", "v"}});
    }
    const auto log = Tracer::instance().snapshot();
    ASSERT_EQ(log.events.size(), 2u);
    const auto &span = findByName(log, "work");
    const auto &marker = findByName(log, "marker");
    EXPECT_TRUE(span.isSpan);
    EXPECT_FALSE(marker.isSpan);
    EXPECT_EQ(marker.parent, span.id);
    EXPECT_DOUBLE_EQ(marker.durSec, 0.0);
    ASSERT_EQ(marker.attrs.size(), 1u);
    EXPECT_EQ(marker.attrs[0].first, "k");
    EXPECT_EQ(marker.attrs[0].second, "v");
}

TEST_F(TracerTest, TypedAttributesRender)
{
    {
        ScopedSpan span("attrs");
        ASSERT_TRUE(span.active());
        span.attr("text", "plain");
        span.attr("str", std::string("dynamic"));
        span.attr("real", 2.5);
        span.attr("int", 7);
        span.attr("wide", static_cast<uint64_t>(1) << 40);
    }
    const auto log = Tracer::instance().snapshot();
    const auto &span = findByName(log, "attrs");
    std::map<std::string, std::string> attrs(span.attrs.begin(),
                                             span.attrs.end());
    EXPECT_EQ(attrs.at("text"), "plain");
    EXPECT_EQ(attrs.at("str"), "dynamic");
    EXPECT_EQ(attrs.at("real"), "2.5");
    EXPECT_EQ(attrs.at("int"), "7");
    EXPECT_EQ(attrs.at("wide"), "1099511627776");
}

TEST_F(TracerTest, ParentScopeConnectsOtherThreads)
{
    uint64_t parentId = 0;
    {
        ScopedSpan parent("fan-out");
        parentId = parent.id();
        std::thread worker([parentId]() {
            ParentScope adopted(parentId);
            ScopedSpan child("fanned");
            ScopedSpan grandchild("nested");
            (void)grandchild;
        });
        worker.join();
    }
    const auto log = Tracer::instance().snapshot();
    const auto &parent = findByName(log, "fan-out");
    const auto &child = findByName(log, "fanned");
    const auto &grandchild = findByName(log, "nested");
    EXPECT_EQ(child.parent, parent.id);
    // Only root spans adopt; nested ones keep their real parent.
    EXPECT_EQ(grandchild.parent, child.id);
    EXPECT_NE(child.lane, parent.lane);
}

TEST_F(TracerTest, ThreadPoolFanOutStaysOneTree)
{
    // The span-tree shape (name -> parent name) must be identical on
    // every run even though workers race for loop iterations.
    std::set<std::pair<std::string, std::string>> shapes[2];
    for (int round = 0; round < 2; ++round) {
        Tracer::instance().clear();
        {
            service::ThreadPool pool(2);
            ScopedSpan root("loop");
            pool.parallelFor(8, [&](size_t i) {
                ScopedSpan body("body");
                if (body.active())
                    body.attr("i", static_cast<uint64_t>(i));
            });
        }
        const auto log = Tracer::instance().snapshot();
        std::map<uint64_t, std::string> names;
        for (const auto &e : log.events)
            names[e.id] = e.name;
        size_t bodies = 0;
        for (const auto &e : log.events) {
            shapes[round].insert(
                {e.name, e.parent == 0 ? "" : names.at(e.parent)});
            if (e.name == "body")
                ++bodies;
        }
        EXPECT_EQ(bodies, 8u);
    }
    EXPECT_EQ(shapes[0], shapes[1]);
    // Every body span hangs off the caller's "loop" span, regardless
    // of which thread ran it.
    EXPECT_TRUE(shapes[0].count({"body", "loop"}));
    for (const auto &[name, parent] : shapes[0]) {
        if (name == "body") {
            EXPECT_EQ(parent, "loop");
        }
    }
}

TEST_F(TracerTest, NamedLanesAppearInSnapshots)
{
    std::thread worker([]() {
        setThreadName("test-lane");
        ScopedSpan span("on-named-lane");
        (void)span;
    });
    worker.join();
    const auto log = Tracer::instance().snapshot();
    const auto &span = findByName(log, "on-named-lane");
    bool found = false;
    for (const auto &lane : log.lanes) {
        if (lane.index == span.lane && lane.name == "test-lane")
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST_F(TracerTest, ClearEmptiesTheLog)
{
    {
        ScopedSpan span("gone");
        (void)span;
    }
    EXPECT_FALSE(Tracer::instance().snapshot().events.empty());
    Tracer::instance().clear();
    EXPECT_TRUE(Tracer::instance().snapshot().events.empty());
}

TEST(TracerOverhead, DisabledTracingRecordsAndAllocatesNothing)
{
    auto &tracer = Tracer::instance();
    tracer.setEnabled(false);

    // Warm up: make sure this thread's buffer (if any) already exists
    // so the loop below cannot be charged for it.
    {
        ScopedSpan warm("warm");
        (void)warm;
    }

    const uint64_t events = tracer.eventCount();
    const uint64_t allocations = tracer.allocationCount();
    for (int i = 0; i < 1000; ++i) {
        ScopedSpan span("hot");
        span.attr("i", i);
        instant("tick");
        ParentScope adopted(42);
        EXPECT_FALSE(span.active());
        EXPECT_EQ(span.id(), 0u);
        EXPECT_EQ(currentSpanId(), 0u);
    }
    EXPECT_EQ(tracer.eventCount(), events);
    EXPECT_EQ(tracer.allocationCount(), allocations);
}

} // namespace
} // namespace dac::obs
