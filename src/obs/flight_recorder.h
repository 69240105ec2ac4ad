/**
 * @file
 * The serving stack's black box: a per-thread lock-free ring buffer of
 * compact fixed-size flight records (request id, lifecycle phase,
 * degradation reason), always on at near-zero cost.
 *
 * Unlike the Tracer (opt-in, allocating, meant for offline flame
 * views), the flight recorder is meant to be running when something
 * goes wrong: recording is a handful of relaxed atomic stores into a
 * preallocated ring, so it stays enabled in production and the last
 * ~kRingSlots events per thread are always available for a post-mortem.
 * Dumps happen on demand — SIGUSR1 (polled by the server main), a
 * degraded/rejected response (rate-limited, via requestDump), or the
 * wire admin frame (net::MsgType::FlightDump).
 *
 * Concurrency: each ring is written only by the thread that holds it;
 * dumping threads read it through a per-slot sequence counter (odd
 * while a write is in flight), so a torn slot is detected and skipped
 * rather than misreported. All slot fields are relaxed atomics — the
 * recorder is diagnostics, not synchronization. A thread hands its
 * ring back when it exits and the next new thread takes it over, so
 * threads alive at the same time never share a ring, while a process
 * that starts and joins threads keeps as many rings as it ever had
 * threads alive at once.
 */

#ifndef DAC_OBS_FLIGHT_RECORDER_H
#define DAC_OBS_FLIGHT_RECORDER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dac::obs {

/** Request-lifecycle checkpoints a flight record can tag. */
enum class FlightPhase : uint8_t {
    /** Frame payload decoded on the event loop. */
    Decode = 0,
    /** Request entered the service queue. */
    QueueEnter = 1,
    /** A worker picked the request up (value = queue wait). */
    QueueExit = 2,
    /** Model-cache lookup settled (value = coordination time). */
    CacheLookup = 3,
    /** Collect+train campaign finished (value = build seconds). */
    ModelBuild = 4,
    /** GA search finished. */
    Search = 5,
    /** Response encoded to wire bytes. */
    Serialize = 6,
    /** Response handed to the kernel. */
    Write = 7,
    /** The degradation ladder fired (reason field says why). */
    Degraded = 8,
};

/** Compact form of TuneResponse::degradedReason. */
enum class FlightReason : uint8_t {
    None = 0,
    Deadline = 1,
    ModelFailure = 2,
    QueueSaturated = 3,
    SearchTruncated = 4,
};

/** Stable lowercase name ("decode", "queue-exit", ...). */
[[nodiscard]] const char *flightPhaseName(FlightPhase phase);

/** Stable name matching TuneResponse::degradedReason ("deadline",
 *  ...); "" for None. */
[[nodiscard]] const char *flightReasonName(FlightReason reason);

/** The FlightReason for a degradedReason string (None if unknown). */
[[nodiscard]] FlightReason
flightReasonFromString(const std::string &reason);

/** One decoded flight record (the dump-side view of a ring slot). */
struct FlightRecord
{
    /** Age at snapshot time, seconds (0 = just recorded). */
    double ageSec = 0.0;
    /** Wire request id (0 when the event has no wire identity). */
    uint64_t requestId = 0;
    FlightPhase phase = FlightPhase::Decode;
    FlightReason reason = FlightReason::None;
    /** Index of the ring the record came from. Successive threads
     *  can share a lane; threads alive together never do. */
    uint32_t lane = 0;
    /** Phase-specific payload, usually a duration in seconds. */
    double valueSec = 0.0;
};

/**
 * Process-global flight recorder (one ring per recording thread).
 */
class FlightRecorder
{
  public:
    /** Slots per thread ring; at serving rates this is tens of seconds
     *  of history per thread. */
    static constexpr size_t kRingSlots = 4096;
    /** Default dump window, seconds. */
    static constexpr double kDefaultWindowSec = 30.0;

    static FlightRecorder &instance();

    /** Cheapest possible check; safe from any thread. */
    [[nodiscard]] static bool
    enabled()
    {
        return enabledFlag.load(std::memory_order_relaxed);
    }

    /** On by default (the recorder is the always-on black box); the
     *  obs-overhead bench turns it off for its baseline row. */
    void setEnabled(bool on);

    /** Record one event into this thread's ring. ~Free when disabled;
     *  a clock read plus a few relaxed stores when enabled. */
    static void record(uint64_t request_id, FlightPhase phase,
                       double value_sec = 0.0,
                       FlightReason reason = FlightReason::None);

    /** Give the calling thread its ring now (a no-op while disabled)
     *  so its first record() does not allocate one: a worker calls it
     *  at start, keeping the ring's allocation and page faults out of
     *  the first request it serves. */
    static void attachThread();

    /** Records accepted since process start (monotonic; the
     *  zero-overhead test pins this flat while disabled). */
    [[nodiscard]] uint64_t recordCount() const;

    /**
     * Copy out every record younger than `window_sec`, oldest first.
     * Slots mid-write are skipped (they would be torn).
     */
    [[nodiscard]] std::vector<FlightRecord>
    snapshot(double window_sec = kDefaultWindowSec) const;

    /**
     * snapshot() rendered as a JSON document (see DESIGN.md §12 for
     * the schema). A non-zero `max_records` keeps only the newest
     * that many records (and reports how many were dropped); wire
     * consumers use it to stay under the frame payload ceiling.
     */
    [[nodiscard]] std::string
    dumpJson(double window_sec = kDefaultWindowSec,
             size_t max_records = 0) const;

    /**
     * Write dumpJson() to `path`.
     *
     * @return False when the file could not be opened.
     */
    bool dumpToFile(const std::string &path,
                    double window_sec = kDefaultWindowSec) const;

    /** Directory automatic dumps (requestDump) land in; "" (default)
     *  disables them. */
    void setDumpDirectory(const std::string &dir);

    /**
     * Ask for an automatic dump named after `trigger` ("degraded",
     * "sigusr1", ...). Rate-limited to one dump per
     * kAutoDumpMinIntervalSec so a degradation storm cannot turn the
     * black box into an I/O storm; a no-op until setDumpDirectory().
     *
     * @return The path written, or "" when suppressed or disabled.
     */
    std::string requestDump(const std::string &trigger);

    /** Minimum spacing between automatic dumps, seconds. */
    static constexpr double kAutoDumpMinIntervalSec = 5.0;

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

  private:
    /**
     * One ring slot. `seq` is odd while its writer is mid-store;
     * readers retry/skip such slots. Fields are relaxed atomics so
     * cross-thread dumps are race-free without locking the hot path.
     */
    struct Slot
    {
        std::atomic<uint64_t> seq{0};
        std::atomic<int64_t> tsNs{0};
        std::atomic<uint64_t> requestId{0};
        /** phase << 8 | reason. */
        std::atomic<uint32_t> packed{0};
        std::atomic<uint64_t> valueBits{0};
    };

    /** One thread's ring; written only by the thread holding it. */
    struct ThreadRing
    {
        Slot slots[kRingSlots];
        /** Next slot to write (holding thread only). */
        size_t head = 0;
        uint32_t lane = 0;
    };

    /** A thread's hold on its ring; returns it on thread exit. */
    struct RingLease;

    FlightRecorder() = default;

    /** This thread's ring: on first use, one an exited thread handed
     *  back, or a new one. */
    ThreadRing &threadRing();

    inline static std::atomic<bool> enabledFlag{true};

    mutable std::mutex registryMutex; ///< guards rings and freeRings
    std::vector<std::unique_ptr<ThreadRing>> rings;
    /** Rings of exited threads; the newest is handed out first. */
    std::vector<ThreadRing *> freeRings;
    std::atomic<uint64_t> records{0};

    mutable std::mutex dumpMutex; ///< guards dump dir + last-dump time
    std::string dumpDirectory;
    int64_t lastAutoDumpNs = 0;
    uint64_t autoDumpIndex = 0;
};

} // namespace dac::obs

#endif // DAC_OBS_FLIGHT_RECORDER_H
