#include "obs/flight_recorder.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <fstream>
#include <sstream>

#include "support/json.h"
#include "support/units.h"

namespace dac::obs {

namespace {

/** steady_clock now, as nanoseconds since the clock's zero. */
int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

constexpr uint32_t
packFields(FlightPhase phase, FlightReason reason)
{
    return (static_cast<uint32_t>(phase) << 8U) |
        static_cast<uint32_t>(reason);
}

std::string
formatJsonNumber(double value)
{
    std::ostringstream oss;
    oss.precision(9);
    oss << value;
    return oss.str();
}

} // namespace

const char *
flightPhaseName(FlightPhase phase)
{
    switch (phase) {
    case FlightPhase::Decode:
        return "decode";
    case FlightPhase::QueueEnter:
        return "queue-enter";
    case FlightPhase::QueueExit:
        return "queue-exit";
    case FlightPhase::CacheLookup:
        return "cache-lookup";
    case FlightPhase::ModelBuild:
        return "model-build";
    case FlightPhase::Search:
        return "search";
    case FlightPhase::Serialize:
        return "serialize";
    case FlightPhase::Write:
        return "write";
    case FlightPhase::Degraded:
        return "degraded";
    }
    return "unknown";
}

const char *
flightReasonName(FlightReason reason)
{
    switch (reason) {
    case FlightReason::None:
        return "";
    case FlightReason::Deadline:
        return "deadline";
    case FlightReason::ModelFailure:
        return "model-failure";
    case FlightReason::QueueSaturated:
        return "queue-saturated";
    case FlightReason::SearchTruncated:
        return "search-truncated";
    }
    return "";
}

FlightReason
flightReasonFromString(const std::string &reason)
{
    if (reason == "deadline")
        return FlightReason::Deadline;
    if (reason == "model-failure")
        return FlightReason::ModelFailure;
    if (reason == "queue-saturated")
        return FlightReason::QueueSaturated;
    if (reason == "search-truncated")
        return FlightReason::SearchTruncated;
    return FlightReason::None;
}

FlightRecorder &
FlightRecorder::instance()
{
    static FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::setEnabled(bool on)
{
    enabledFlag.store(on, std::memory_order_relaxed);
}

struct FlightRecorder::RingLease
{
    ThreadRing *ring = nullptr;

    RingLease() = default;
    RingLease(const RingLease &) = delete;
    RingLease &operator=(const RingLease &) = delete;

    /** Runs at thread exit: the ring (and the records in it) goes to
     *  the next new thread. Rings are never freed, so dumps still see
     *  this thread's records until the next holder overwrites them. */
    ~RingLease()
    {
        if (ring == nullptr)
            return;
        FlightRecorder &recorder = instance();
        std::lock_guard<std::mutex> lock(recorder.registryMutex);
        recorder.freeRings.push_back(ring);
    }
};

FlightRecorder::ThreadRing &
FlightRecorder::threadRing()
{
    thread_local RingLease lease;
    if (lease.ring == nullptr) {
        std::lock_guard<std::mutex> lock(registryMutex);
        if (freeRings.empty()) {
            auto fresh = std::make_unique<ThreadRing>();
            fresh->lane = static_cast<uint32_t>(rings.size());
            rings.push_back(std::move(fresh));
            lease.ring = rings.back().get();
        } else {
            lease.ring = freeRings.back();
            freeRings.pop_back();
        }
    }
    return *lease.ring;
}

void
FlightRecorder::attachThread()
{
    if (enabled())
        (void)instance().threadRing();
}

void
FlightRecorder::record(uint64_t request_id, FlightPhase phase,
                       double value_sec, FlightReason reason)
{
    if (!enabled())
        return;
    FlightRecorder &recorder = instance();
    ThreadRing &ring = recorder.threadRing();
    Slot &slot = ring.slots[ring.head];
    ring.head = (ring.head + 1) % kRingSlots;

    // Seqlock write: odd seq marks the slot torn; readers that observe
    // it (or a seq change across their read) skip the slot. Release on
    // the closing store publishes the field stores that precede it.
    const uint64_t seq = slot.seq.load(std::memory_order_relaxed);
    slot.seq.store(seq + 1, std::memory_order_release);
    slot.tsNs.store(steadyNowNs(), std::memory_order_relaxed);
    slot.requestId.store(request_id, std::memory_order_relaxed);
    slot.packed.store(packFields(phase, reason),
                      std::memory_order_relaxed);
    slot.valueBits.store(std::bit_cast<uint64_t>(value_sec),
                         std::memory_order_relaxed);
    slot.seq.store(seq + 2, std::memory_order_release);
    recorder.records.fetch_add(1, std::memory_order_relaxed);
}

uint64_t
FlightRecorder::recordCount() const
{
    return records.load(std::memory_order_relaxed);
}

std::vector<FlightRecord>
FlightRecorder::snapshot(double window_sec) const
{
    const int64_t nowNs = steadyNowNs();
    const int64_t cutoffNs =
        nowNs - static_cast<int64_t>(secToNs(std::max(0.0, window_sec)));

    std::vector<FlightRecord> out;
    std::lock_guard<std::mutex> lock(registryMutex);
    for (const auto &ring : rings) {
        for (const Slot &slot : ring->slots) {
            // Seqlock read: an odd or changed seq means the writer was
            // mid-store; drop the slot rather than report torn fields.
            const uint64_t before =
                slot.seq.load(std::memory_order_acquire);
            if (before == 0 || (before & 1U) != 0)
                continue;
            const int64_t tsNs = slot.tsNs.load(std::memory_order_relaxed);
            const uint64_t requestId =
                slot.requestId.load(std::memory_order_relaxed);
            const uint32_t packed =
                slot.packed.load(std::memory_order_relaxed);
            const uint64_t valueBits =
                slot.valueBits.load(std::memory_order_relaxed);
            if (slot.seq.load(std::memory_order_acquire) != before)
                continue;
            if (tsNs < cutoffNs)
                continue;

            FlightRecord record;
            record.ageSec = nsToSec(static_cast<double>(nowNs - tsNs));
            record.requestId = requestId;
            record.phase = static_cast<FlightPhase>(packed >> 8U);
            record.reason = static_cast<FlightReason>(packed & 0xFFU);
            record.lane = ring->lane;
            record.valueSec = std::bit_cast<double>(valueBits);
            out.push_back(record);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const FlightRecord &a, const FlightRecord &b) {
                  return a.ageSec > b.ageSec;
              });
    return out;
}

std::string
FlightRecorder::dumpJson(double window_sec, size_t max_records) const
{
    std::vector<FlightRecord> window = snapshot(window_sec);
    size_t dropped = 0;
    if (max_records != 0 && window.size() > max_records) {
        // Keep the newest records: they are the tail of the
        // oldest-first snapshot.
        dropped = window.size() - max_records;
        window.erase(window.begin(),
                     window.begin() + static_cast<long>(dropped));
    }
    std::ostringstream out;
    out << "{\"window_sec\":" << formatJsonNumber(window_sec)
        << ",\"record_count\":" << window.size();
    if (dropped != 0)
        out << ",\"dropped_records\":" << dropped;
    out << ",\"records\":[";
    bool first = true;
    for (const FlightRecord &record : window) {
        out << (first ? "" : ",") << "{\"age_sec\":"
            << formatJsonNumber(record.ageSec)
            << ",\"request_id\":" << record.requestId << ",\"phase\":\""
            << flightPhaseName(record.phase) << "\"";
        if (record.reason != FlightReason::None) {
            out << ",\"reason\":\"" << flightReasonName(record.reason)
                << "\"";
        }
        out << ",\"lane\":" << record.lane << ",\"value_sec\":"
            << formatJsonNumber(record.valueSec) << "}";
        first = false;
    }
    out << "]}";
    return out.str();
}

bool
FlightRecorder::dumpToFile(const std::string &path,
                           double window_sec) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out.is_open())
        return false;
    out << dumpJson(window_sec) << "\n";
    return out.good();
}

void
FlightRecorder::setDumpDirectory(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(dumpMutex);
    dumpDirectory = dir;
}

std::string
FlightRecorder::requestDump(const std::string &trigger)
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(dumpMutex);
        if (dumpDirectory.empty())
            return "";
        const int64_t nowNs = steadyNowNs();
        const auto minGapNs =
            static_cast<int64_t>(secToNs(kAutoDumpMinIntervalSec));
        if (lastAutoDumpNs != 0 && nowNs - lastAutoDumpNs < minGapNs)
            return "";
        lastAutoDumpNs = nowNs;
        path = dumpDirectory + "/flight-" + trigger + "-" +
            std::to_string(autoDumpIndex++) + ".json";
    }
    return dumpToFile(path) ? path : "";
}

} // namespace dac::obs
