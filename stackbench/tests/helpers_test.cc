/**
 * @file
 * Tests of the benchmark's own helpers: the ten-beyond tail rule,
 * due-time latency accounting, and the repeat-share counter on both
 * serving generators. The geometric-mean speedup is dac::geomean,
 * covered by tests/support/test_statistics.cc.
 */

#include <gtest/gtest.h>

#include <set>

#include "stats.h"
#include "traffic.h"

namespace stackbench {
namespace {

TEST(TailPercentile, HighestRungWithTenSamplesBeyond)
{
    EXPECT_EQ(samplesBeyond(1000, 99.0), 10u);
    EXPECT_EQ(samplesBeyond(999, 99.0), 9u);
    EXPECT_EQ(samplesBeyond(100, 90.0), 10u);

    EXPECT_DOUBLE_EQ(tailPercentile(1000), 99.0);
    EXPECT_DOUBLE_EQ(tailPercentile(999), 95.0);
    EXPECT_DOUBLE_EQ(tailPercentile(200), 95.0);
    EXPECT_DOUBLE_EQ(tailPercentile(199), 90.0);
    EXPECT_DOUBLE_EQ(tailPercentile(100), 90.0);
    EXPECT_DOUBLE_EQ(tailPercentile(99), 50.0);
    EXPECT_DOUBLE_EQ(tailPercentile(20), 50.0);
    EXPECT_DOUBLE_EQ(tailPercentile(19), 0.0);
    EXPECT_DOUBLE_EQ(tailPercentile(10000), 99.9);
}

TEST(TailPercentile, CapHoldsTheRungFixed)
{
    // A larger sample must not move a workload's tail to a higher rung.
    EXPECT_DOUBLE_EQ(tailPercentile(5000, 95.0), 95.0);
    EXPECT_DOUBLE_EQ(tailPercentile(50000, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(tailPercentile(500, 99.0), 95.0);
}

TEST(Percentile, NearestRank)
{
    std::vector<double> values;
    for (int v = 100; v >= 1; --v)
        values.push_back(v);
    EXPECT_DOUBLE_EQ(percentile(values, 50.0), 50.0);
    EXPECT_DOUBLE_EQ(percentile(values, 90.0), 90.0);
    EXPECT_DOUBLE_EQ(percentile(values, 99.0), 99.0);
    EXPECT_DOUBLE_EQ(percentile(values, 100.0), 100.0);
    EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
    // The input order is the caller's; percentile works on a copy.
    EXPECT_DOUBLE_EQ(values.front(), 100.0);
}

TEST(OpenLoopLedger, StalledSendMakesLaterRequestsLateAndIsCounted)
{
    // 100 requests/s: request i is due at 10 ms * i. The peer stalls
    // while request 2 is being written (the write blocks for 45 ms),
    // and every reply takes 1 ms after its send.
    OpenLoopLedger ledger(8, 100.0);
    double clock = 0.0;
    paceOpenLoop(
        ledger, [&] { return clock; },
        [&](double t) { clock = std::max(clock, t); },
        [&](size_t i) {
            if (i == 2)
                clock += 0.045;
            ledger.replied(i, clock + 0.001);
        });

    // Requests 0-2 went out on time; 3-6 queued behind the stall.
    EXPECT_DOUBLE_EQ(ledger.lateness(2), 0.0);
    EXPECT_NEAR(ledger.lateness(3), 0.035, 1e-12);
    EXPECT_NEAR(ledger.lateness(4), 0.025, 1e-12);
    EXPECT_NEAR(ledger.lateness(6), 0.005, 1e-12);
    EXPECT_DOUBLE_EQ(ledger.lateness(7), 0.0);

    // Latency counts from the due time, so the stall shows in every
    // request it delayed, not only in the one that hit it.
    EXPECT_NEAR(ledger.latency(2), 0.046, 1e-12);
    EXPECT_NEAR(ledger.latency(3), 0.036, 1e-12);
    EXPECT_NEAR(ledger.latency(7), 0.001, 1e-12);
    EXPECT_NEAR(ledger.latency(3) - ledger.lateness(3), 0.001, 1e-12);

    EXPECT_NEAR(percentile(ledger.latenesses(), 100.0), 0.035, 1e-12);
    EXPECT_NEAR(ledger.lastReply(), 0.071, 1e-12);
}

TEST(OpenLoopLedger, UnansweredRequestsHaveNoLatency)
{
    OpenLoopLedger ledger(3, 10.0);
    ledger.sent(0, 0.0);
    ledger.replied(0, 0.002);
    ledger.sent(1, 0.1);
    EXPECT_TRUE(ledger.answered(0));
    EXPECT_FALSE(ledger.answered(1));
    EXPECT_FALSE(ledger.answered(2));
    EXPECT_EQ(ledger.latenesses().size(), 2u);
    EXPECT_NEAR(ledger.lastReply(), 0.002, 1e-15);
}

TEST(RepeatCounter, CountsRepeatedTriples)
{
    RepeatCounter counter;
    EXPECT_DOUBLE_EQ(counter.share(), 0.0);
    EXPECT_FALSE(counter.observe("KM", 160, 1));
    EXPECT_FALSE(counter.observe("KM", 160, 2));
    EXPECT_FALSE(counter.observe("KM", 192, 1));
    EXPECT_TRUE(counter.observe("KM", 160, 1));
    EXPECT_EQ(counter.repeats(), 1u);
    EXPECT_DOUBLE_EQ(counter.share(), 0.25);
}

TEST(RepeatCounter, ZeroOnServeUniqueAndHighOnServeRepeat)
{
    RepeatCounter unique;
    for (const auto &request : serveUniqueSchedule(7, 3000))
        unique.observe(request.workload, request.nativeSize, request.seed);
    EXPECT_EQ(unique.total(), 3000u);
    EXPECT_DOUBLE_EQ(unique.share(), 0.0);

    RepeatCounter repeat;
    RepeatStream first(7, 0);
    RepeatStream second(7, 1);
    for (int b = 0; b < 100; ++b) {
        for (auto *stream : {&first, &second}) {
            for (const auto &request : stream->nextBatch(8))
                repeat.observe(request.workload, request.nativeSize,
                               request.seed);
        }
    }
    EXPECT_GT(repeat.share(), 0.5);
}

TEST(Traffic, Table1PairsAndModelKeys)
{
    EXPECT_EQ(table1Pairs().size(), 30u);
    EXPECT_EQ(modelKeys().size(), 12u);
    size_t pairs = 0;
    for (const auto &key : modelKeys())
        pairs += key.pairs.size();
    EXPECT_EQ(pairs, 30u);
}

TEST(Traffic, ColdBuildRoundsAskEveryKeyAndCoverEveryPair)
{
    std::set<size_t> pairs;
    std::set<uint64_t> seeds;
    for (size_t round = 0; round < 5; ++round) {
        const auto requests = coldBuildRound(3, round);
        ASSERT_EQ(requests.size(), modelKeys().size());
        for (size_t k = 0; k < requests.size(); ++k) {
            EXPECT_EQ(keyOfPair(pairOf(requests[k])), k);
            pairs.insert(pairOf(requests[k]));
            seeds.insert(requests[k].seed);
        }
    }
    EXPECT_EQ(pairs.size(), 30u);
    EXPECT_EQ(seeds.size(), 60u);
}

TEST(Traffic, SameSeedSameRequests)
{
    const auto a = serveUniqueSchedule(11, 50);
    const auto b = serveUniqueSchedule(11, 50);
    const auto c = serveUniqueSchedule(12, 50);
    bool differs = false;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cacheKey(), b[i].cacheKey());
        differs = differs || a[i].cacheKey() != c[i].cacheKey();
    }
    EXPECT_TRUE(differs);
}

TEST(Traffic, SerialStreamIsTheServeUniqueSchedule)
{
    const auto schedule = serveUniqueSchedule(11, 50);
    UniqueStream stream(11);
    for (const auto &expected : schedule) {
        const auto batch = stream.nextBatch(1);
        ASSERT_EQ(batch.size(), 1u);
        EXPECT_EQ(batch.front().cacheKey(), expected.cacheKey());
    }
}

} // namespace
} // namespace stackbench
