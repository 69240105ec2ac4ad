/**
 * @file
 * Request traffic of the tuning-stack benchmark. Every workload draws
 * from Table 1's 30 program-input pairs, which fall into 12 model keys
 * (one per program and power-of-two size band). Every generator is a
 * pure function of the run seed, so one seed always yields the same
 * requests.
 */
#ifndef STACKBENCH_TRAFFIC_H
#define STACKBENCH_TRAFFIC_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/request.h"
#include "support/random.h"

namespace stackbench {

/** One Table 1 program-input pair. */
struct Pair
{
    std::string workload;
    double nativeSize = 0.0;
};

/** The 30 pairs, in Table 1 order (PR, KM, BA, NW, WC, TS). */
[[nodiscard]] const std::vector<Pair> &table1Pairs();

/** One model key: a program and size band, and the pairs it serves. */
struct KeyGroup
{
    std::string workload;
    int sizeBand = 0;
    /** Indices into table1Pairs(). */
    std::vector<size_t> pairs;
};

/** The 12 model keys, ordered by their first pair. */
[[nodiscard]] const std::vector<KeyGroup> &modelKeys();

/** Index into modelKeys() of the key that serves pair `pair`. */
[[nodiscard]] size_t keyOfPair(size_t pair);

/** Index into table1Pairs() of a request's pair. */
[[nodiscard]] size_t pairOf(const dac::service::TuneRequest &request);

/** A tune request for pair `pair` with tuning seed `seed`. */
[[nodiscard]] dac::service::TuneRequest makeRequest(size_t pair,
                                                    uint64_t seed);

/**
 * Cold-build round `round`: each of the 12 keys once, in key order.
 * Key j asks its pairs in rotation (so five rounds cover all 30
 * pairs), each request with a seed no other round uses.
 */
[[nodiscard]] std::vector<dac::service::TuneRequest>
coldBuildRound(uint64_t run_seed, size_t round);

/**
 * The unique-request stream of serve-unique and serve-serial: requests
 * drawn uniformly over the 30 pairs, each with a fresh seed, so no two
 * share an answer.
 */
class UniqueStream
{
  public:
    explicit UniqueStream(uint64_t run_seed);

    /** The next `size` requests of the stream. */
    [[nodiscard]] std::vector<dac::service::TuneRequest>
    nextBatch(size_t size);

  private:
    dac::Rng rng;
    uint64_t base;
    uint64_t issued = 0;
};

/** The serve-unique schedule: the first `count` requests of the run's
 *  UniqueStream. */
[[nodiscard]] std::vector<dac::service::TuneRequest>
serveUniqueSchedule(uint64_t run_seed, size_t count);

/** Distinct seeds serve-repeat asks each pair with. */
inline constexpr size_t kRepeatSeeds = 4;

/**
 * One serve-repeat connection's request stream: Zipf(s = 1) over the
 * 30 pairs ranked in Table 1 order, each request asking one of
 * kRepeatSeeds run-wide seeds — the periodic-job pattern, where the
 * same few jobs come back again and again.
 */
class RepeatStream
{
  public:
    RepeatStream(uint64_t run_seed, size_t connection);

    /** The next `size` requests of the stream. */
    [[nodiscard]] std::vector<dac::service::TuneRequest>
    nextBatch(size_t size);

  private:
    dac::Rng rng;
    std::vector<uint64_t> seeds;
    /** Zipf cumulative distribution over the pair ranks. */
    std::vector<double> cdf;
};

} // namespace stackbench

#endif // STACKBENCH_TRAFFIC_H
