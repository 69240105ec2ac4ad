/**
 * @file
 * Measurement helpers of the tuning-stack benchmark: nearest-rank
 * order statistics under the ten-beyond tail rule, the open-loop
 * due-time ledger, and the repeated-request counter. Pure functions
 * and small classes with no clock of their own, so tests can drive
 * them with synthetic times.
 */
#ifndef STACKBENCH_STATS_H
#define STACKBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

namespace stackbench {

/** Nearest-rank percentile (pct in [0, 100]) of `values`; 0 when
 *  empty. Takes a copy so callers keep their sample order. */
[[nodiscard]] double percentile(std::vector<double> values, double pct);

/** percentile(values, 50). */
[[nodiscard]] double median(std::vector<double> values);

/** Samples ranked strictly above the nearest-rank pct-th percentile
 *  of `n` samples: n - ceil(pct / 100 * n). */
[[nodiscard]] size_t samplesBeyond(size_t n, double pct);

/**
 * The tail percentile a sample of `n` supports: the highest rung of
 * the ladder 50, 90, 95, 99, 99.9 that leaves at least ten samples
 * beyond it, capped at `cap`. 0 when not even the median qualifies.
 */
[[nodiscard]] double tailPercentile(size_t n, double cap = 99.9);

/**
 * Due-time accounting for an open-loop generator.
 *
 * Request i is due at i / rate seconds after the loop starts. Latency
 * counts from the due time, not from the send, so a generator that
 * falls behind (a blocked write, a stalled peer) charges its delay to
 * every request it made late instead of hiding it.
 */
class OpenLoopLedger
{
  public:
    OpenLoopLedger(size_t count, double rate_per_sec);

    [[nodiscard]] size_t count() const { return dueSec.size(); }
    /** Seconds after the loop start at which request i is due. */
    [[nodiscard]] double due(size_t i) const { return dueSec[i]; }

    /** Request i left the generator at `t` (loop-relative seconds). */
    void sent(size_t i, double t) { sentSec[i] = t; }
    /** Request i's reply arrived at `t`. */
    void replied(size_t i, double t) { replySec[i] = t; }

    [[nodiscard]] bool answered(size_t i) const { return replySec[i] >= 0; }
    /** Reply time minus due time, seconds (request must be answered). */
    [[nodiscard]] double latency(size_t i) const
    {
        return replySec[i] - dueSec[i];
    }
    /** How late request i went out, seconds (0 when on time). */
    [[nodiscard]] double lateness(size_t i) const;
    /** Lateness of every sent request, in request order. */
    [[nodiscard]] std::vector<double> latenesses() const;
    /** Last reply time, seconds; 0 when nothing was answered. */
    [[nodiscard]] double lastReply() const;

  private:
    std::vector<double> dueSec;
    std::vector<double> sentSec;
    std::vector<double> replySec;
};

/**
 * Send every request of `ledger` at its due time: sleep until it is
 * due, or go at once when the generator is already behind, and
 * record when each send started. `now` reads loop-relative seconds;
 * `sleep_until` blocks until a loop-relative time.
 */
void paceOpenLoop(OpenLoopLedger &ledger,
                  const std::function<double()> &now,
                  const std::function<void(double)> &sleep_until,
                  const std::function<void(size_t)> &send);

/**
 * Counts requests that repeat an earlier (program, size, seed) triple
 * — the share an answer cache keyed on the request could serve.
 */
class RepeatCounter
{
  public:
    /** Record one request; true when its triple was seen before. */
    bool observe(const std::string &workload, double native_size,
                 uint64_t seed);
    [[nodiscard]] size_t total() const { return seen; }
    [[nodiscard]] size_t repeats() const { return repeated; }
    /** repeats / total; 0 before the first request. */
    [[nodiscard]] double share() const;

  private:
    std::set<std::tuple<std::string, double, uint64_t>> triples;
    size_t seen = 0;
    size_t repeated = 0;
};

} // namespace stackbench

#endif // STACKBENCH_STATS_H
