#include "stats.h"

#include <algorithm>
#include <cmath>

namespace stackbench {

namespace {

/** 1-based nearest rank of the pct-th percentile of n samples. The
 *  product is rounded first so 99% of 1000 is rank 990, not 991 from
 *  the representation error in 0.99 * 1000. */
size_t
nearestRank(size_t n, double pct)
{
    return static_cast<size_t>(std::ceil(
        std::round(pct / 100.0 * static_cast<double>(n) * 1e6) / 1e6));
}

} // namespace

double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t rank = nearestRank(values.size(), pct);
    return values[std::min(rank == 0 ? 0 : rank - 1, values.size() - 1)];
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

size_t
samplesBeyond(size_t n, double pct)
{
    const size_t rank = nearestRank(n, pct);
    return rank >= n ? 0 : n - rank;
}

double
tailPercentile(size_t n, double cap)
{
    double best = 0.0;
    for (const double pct : {50.0, 90.0, 95.0, 99.0, 99.9}) {
        if (pct <= cap && samplesBeyond(n, pct) >= 10)
            best = pct;
    }
    return best;
}

OpenLoopLedger::OpenLoopLedger(size_t count, double rate_per_sec)
    : dueSec(count), sentSec(count, -1.0), replySec(count, -1.0)
{
    for (size_t i = 0; i < count; ++i)
        dueSec[i] = static_cast<double>(i) / rate_per_sec;
}

double
OpenLoopLedger::lateness(size_t i) const
{
    return sentSec[i] < 0 ? 0.0 : std::max(0.0, sentSec[i] - dueSec[i]);
}

std::vector<double>
OpenLoopLedger::latenesses() const
{
    std::vector<double> out;
    out.reserve(count());
    for (size_t i = 0; i < count(); ++i) {
        if (sentSec[i] >= 0)
            out.push_back(lateness(i));
    }
    return out;
}

double
OpenLoopLedger::lastReply() const
{
    double last = 0.0;
    for (const double t : replySec)
        last = std::max(last, t);
    return last;
}

void
paceOpenLoop(OpenLoopLedger &ledger, const std::function<double()> &now,
             const std::function<void(double)> &sleep_until,
             const std::function<void(size_t)> &send)
{
    for (size_t i = 0; i < ledger.count(); ++i) {
        if (now() < ledger.due(i))
            sleep_until(ledger.due(i));
        ledger.sent(i, now());
        send(i);
    }
}

bool
RepeatCounter::observe(const std::string &workload, double native_size,
                       uint64_t seed)
{
    ++seen;
    const bool repeat =
        !triples.emplace(workload, native_size, seed).second;
    if (repeat)
        ++repeated;
    return repeat;
}

double
RepeatCounter::share() const
{
    return seen == 0 ? 0.0
                     : static_cast<double>(repeated) /
                           static_cast<double>(seen);
}

} // namespace stackbench
