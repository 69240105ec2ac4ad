/** @file Tests for the always-on flight recorder (the black box). */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.h"
#include "support/json.h"

namespace dac::obs {
namespace {

/** The recorder is process-global; tests share it and assert on
 *  deltas, never absolute counts. */
uint64_t
countSince(uint64_t before)
{
    return FlightRecorder::instance().recordCount() - before;
}

/** The first of 100 request ids no earlier test run in this process
 *  used, so a repeated run does not count its predecessor's lanes.
 *  Blocks count up from 1100: above the small fixed ids other tests
 *  use and, for hundreds of repeats, below the 80000-and-up range. */
uint64_t
freshIds()
{
    static uint64_t next = 1000;
    next += 100;
    return next;
}

/** Distinct lanes among records with request ids in [first, last). */
std::vector<uint32_t>
lanesOf(const std::vector<FlightRecord> &records, uint64_t first,
        uint64_t last)
{
    std::vector<uint32_t> lanes;
    for (const auto &r : records) {
        if (r.requestId >= first && r.requestId < last &&
            std::find(lanes.begin(), lanes.end(), r.lane) == lanes.end())
            lanes.push_back(r.lane);
    }
    return lanes;
}

TEST(FlightRecorder, RecordsAppearInSnapshot)
{
    auto &recorder = FlightRecorder::instance();
    const uint64_t before = recorder.recordCount();
    FlightRecorder::record(101, FlightPhase::Decode, 1e-5);
    FlightRecorder::record(101, FlightPhase::CacheLookup, 2e-6);
    FlightRecorder::record(101, FlightPhase::Degraded, 0.0,
                           FlightReason::Deadline);
    EXPECT_EQ(countSince(before), 3u);

    const auto records = recorder.snapshot(/*window_sec=*/5.0);
    // Other tests may have recorded too; find ours by request id.
    int seen = 0;
    bool sawLookup = false;
    bool sawReason = false;
    for (const auto &r : records) {
        if (r.requestId != 101)
            continue;
        ++seen;
        EXPECT_LT(r.ageSec, 5.0);
        EXPECT_GE(r.ageSec, 0.0);
        if (r.phase == FlightPhase::CacheLookup) {
            EXPECT_EQ(r.reason, FlightReason::None);
            EXPECT_DOUBLE_EQ(r.valueSec, 2e-6);
            sawLookup = true;
        }
        if (r.phase == FlightPhase::Degraded) {
            EXPECT_EQ(r.reason, FlightReason::Deadline);
            sawReason = true;
        }
    }
    EXPECT_GE(seen, 3);
    EXPECT_TRUE(sawLookup);
    EXPECT_TRUE(sawReason);
}

TEST(FlightRecorder, SnapshotIsOldestFirst)
{
    auto &recorder = FlightRecorder::instance();
    FlightRecorder::record(77, FlightPhase::QueueEnter);
    FlightRecorder::record(77, FlightPhase::QueueExit);
    const auto records = recorder.snapshot(5.0);
    for (size_t i = 1; i < records.size(); ++i)
        EXPECT_GE(records[i - 1].ageSec, records[i].ageSec);
}

TEST(FlightRecorder, DisabledRecordsNothing)
{
    auto &recorder = FlightRecorder::instance();
    recorder.setEnabled(false);
    const uint64_t before = recorder.recordCount();
    FlightRecorder::record(202, FlightPhase::Search, 0.125);
    EXPECT_EQ(countSince(before), 0u);
    recorder.setEnabled(true); // restore the always-on default
    FlightRecorder::record(203, FlightPhase::Search, 0.125);
    EXPECT_EQ(countSince(before), 1u);
}

TEST(FlightRecorder, ZeroWindowSnapshotIsEmptyOfOldRecords)
{
    auto &recorder = FlightRecorder::instance();
    FlightRecorder::record(55, FlightPhase::Write);
    // A zero-second window can only contain records from "now"; the
    // record above is already in the past by the time we snapshot
    // (and a clock tick apart), so expect nothing or only
    // just-recorded entries — never a crash or a negative age.
    for (const auto &r : recorder.snapshot(0.0))
        EXPECT_GE(r.ageSec, 0.0);
}

TEST(FlightRecorder, DumpJsonParsesBackWithSchema)
{
    auto &recorder = FlightRecorder::instance();
    FlightRecorder::record(909, FlightPhase::ModelBuild, 0.25);
    FlightRecorder::record(909, FlightPhase::Degraded, 0.0,
                           FlightReason::SearchTruncated);

    const JsonValue doc = parseJson(recorder.dumpJson(10.0));
    EXPECT_DOUBLE_EQ(doc.numberAt("window_sec"), 10.0);
    ASSERT_TRUE(doc.at("records").isArray());
    EXPECT_EQ(static_cast<size_t>(doc.numberAt("record_count")),
              doc.at("records").items.size());

    bool sawBuild = false;
    bool sawDegraded = false;
    for (const auto &r : doc.at("records").items) {
        EXPECT_TRUE(r.has("age_sec"));
        EXPECT_TRUE(r.has("phase"));
        if (static_cast<uint64_t>(r.numberAt("request_id")) != 909)
            continue;
        if (r.stringAt("phase") == "model-build") {
            EXPECT_DOUBLE_EQ(r.numberAt("value_sec"), 0.25);
            EXPECT_TRUE(r.has("lane"));
            EXPECT_FALSE(r.has("shard"));
            // reason is omitted when None.
            EXPECT_FALSE(r.has("reason"));
            sawBuild = true;
        }
        if (r.stringAt("phase") == "degraded") {
            EXPECT_EQ(r.stringAt("reason"), "search-truncated");
            sawDegraded = true;
        }
    }
    EXPECT_TRUE(sawBuild);
    EXPECT_TRUE(sawDegraded);
}

TEST(FlightRecorder, RecordsFromManyThreadsAllLand)
{
    auto &recorder = FlightRecorder::instance();
    const uint64_t before = recorder.recordCount();
    const uint64_t ids = freshIds();
    constexpr int kThreads = 4;
    constexpr int kPerThread = 500;
    // Every thread stays alive until all have recorded, so no thread
    // can inherit the ring of one that already exited.
    std::latch allRecorded(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, ids, &allRecorded]() {
            for (int i = 0; i < kPerThread; ++i)
                FlightRecorder::record(ids + static_cast<uint64_t>(t),
                                       FlightPhase::Search, 1e-6 * i);
            allRecorded.arrive_and_wait();
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(countSince(before),
              static_cast<uint64_t>(kThreads) * kPerThread);

    // Threads alive together never share a ring: one lane each.
    const auto lanes =
        lanesOf(recorder.snapshot(10.0), ids, ids + kThreads);
    EXPECT_EQ(lanes.size(), static_cast<size_t>(kThreads));
}

TEST(FlightRecorder, ExitedThreadRingsAreReused)
{
    // Each thread exits before the next starts, so each can take over
    // the ring its predecessor handed back: the recorder's memory
    // follows the threads alive at once, not every thread ever seen.
    auto &recorder = FlightRecorder::instance();
    const uint64_t ids = freshIds();
    constexpr uint64_t kThreads = 64;
    for (uint64_t t = 0; t < kThreads; ++t) {
        std::thread([id = ids + t]() {
            FlightRecorder::record(id, FlightPhase::Write);
        }).join();
    }
    const auto records = recorder.snapshot(10.0);
    EXPECT_EQ(lanesOf(records, ids, ids + kThreads).size(), 1u);
    size_t landed = 0;
    for (const auto &r : records)
        if (r.requestId >= ids && r.requestId < ids + kThreads)
            ++landed;
    EXPECT_EQ(landed, kThreads);
}

TEST(FlightRecorder, RingOverwritesOldestNotCrash)
{
    // More records than kRingSlots from one thread: the ring wraps,
    // keeping the most recent kRingSlots.
    auto &recorder = FlightRecorder::instance();
    for (size_t i = 0; i < FlightRecorder::kRingSlots + 100; ++i)
        FlightRecorder::record(80000 + i, FlightPhase::Decode);
    const auto records = recorder.snapshot(30.0);
    uint64_t newest = 0;
    for (const auto &r : records)
        if (r.requestId >= 80000)
            newest = std::max(newest, r.requestId);
    // The most recent record survived the wrap.
    EXPECT_EQ(newest, 80000 + FlightRecorder::kRingSlots + 99);
}

TEST(FlightRecorder, DumpJsonCapKeepsNewestAndReportsDropped)
{
    auto &recorder = FlightRecorder::instance();
    for (uint64_t i = 0; i < 50; ++i)
        FlightRecorder::record(90000 + i, FlightPhase::Write);

    const JsonValue doc =
        parseJson(recorder.dumpJson(10.0, /*max_records=*/10));
    EXPECT_EQ(static_cast<size_t>(doc.numberAt("record_count")), 10u);
    EXPECT_EQ(doc.at("records").items.size(), 10u);
    EXPECT_GE(doc.numberAt("dropped_records"), 40.0);
    // The survivors are the newest: the last record written is there.
    bool sawNewest = false;
    for (const auto &r : doc.at("records").items)
        if (static_cast<uint64_t>(r.numberAt("request_id")) == 90049)
            sawNewest = true;
    EXPECT_TRUE(sawNewest);

    // An uncapped dump does not report a drop count.
    const JsonValue full = parseJson(recorder.dumpJson(10.0));
    EXPECT_FALSE(full.has("dropped_records"));
}

TEST(FlightRecorder, RequestDumpHonorsDirectoryAndRateLimit)
{
    auto &recorder = FlightRecorder::instance();
    // Without a directory, requestDump is a no-op.
    recorder.setDumpDirectory("");
    EXPECT_EQ(recorder.requestDump("test"), "");

    char dirTemplate[] = "/tmp/dac-flight-XXXXXX";
    ASSERT_NE(mkdtemp(dirTemplate), nullptr);
    const std::string dir = dirTemplate;
    recorder.setDumpDirectory(dir);
    FlightRecorder::record(42, FlightPhase::Degraded, 0.0,
                           FlightReason::QueueSaturated);
    const std::string path = recorder.requestDump("test");
    ASSERT_FALSE(path.empty());
    EXPECT_NE(path.find(dir), std::string::npos);
    EXPECT_NE(path.find("test"), std::string::npos);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string body((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    EXPECT_NO_THROW((void)parseJson(body));

    // Immediately asking again is suppressed by the rate limit.
    EXPECT_EQ(recorder.requestDump("test"), "");

    recorder.setDumpDirectory("");
    std::remove(path.c_str());
    std::remove(dir.c_str());
}

TEST(FlightRecorder, ReasonNamesRoundTrip)
{
    EXPECT_EQ(flightReasonFromString("deadline"),
              FlightReason::Deadline);
    EXPECT_EQ(flightReasonFromString("model-failure"),
              FlightReason::ModelFailure);
    EXPECT_EQ(flightReasonFromString("queue-saturated"),
              FlightReason::QueueSaturated);
    EXPECT_EQ(flightReasonFromString("search-truncated"),
              FlightReason::SearchTruncated);
    EXPECT_EQ(flightReasonFromString("anything else"),
              FlightReason::None);
    for (const auto reason :
         {FlightReason::Deadline, FlightReason::ModelFailure,
          FlightReason::QueueSaturated, FlightReason::SearchTruncated})
        EXPECT_EQ(flightReasonFromString(flightReasonName(reason)),
                  reason);
    EXPECT_EQ(std::string(flightReasonName(FlightReason::None)), "");
}

TEST(FlightRecorder, PhaseNamesAreStable)
{
    EXPECT_EQ(std::string(flightPhaseName(FlightPhase::Decode)),
              "decode");
    EXPECT_EQ(std::string(flightPhaseName(FlightPhase::QueueExit)),
              "queue-exit");
    EXPECT_EQ(std::string(flightPhaseName(FlightPhase::Degraded)),
              "degraded");
}

} // namespace
} // namespace dac::obs
