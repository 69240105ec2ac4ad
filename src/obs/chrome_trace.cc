#include "obs/chrome_trace.h"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "support/json.h"
#include "support/logging.h"
#include "support/units.h"

namespace dac::obs {

namespace {

/** Fixed pid: the whole tuning process is one trace process. */
constexpr int kPid = 1;

/** Microsecond timestamp with sub-microsecond detail preserved. */
std::string
formatMicros(double sec)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.3f", secToUsec(sec));
    return buffer;
}

void
appendArgs(
    std::ostringstream &out, const TraceEvent &event)
{
    out << "\"args\":{\"span_id\":" << event.id << ",\"parent_id\":"
        << event.parent;
    for (const auto &[key, value] : event.attrs) {
        out << ",\"" << jsonEscape(key) << "\":\"" << jsonEscape(value)
            << "\"";
    }
    out << "}";
}

} // namespace

std::string
toChromeTraceJson(const TraceLog &log)
{
    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    const auto separator = [&]() {
        if (!first)
            out << ",";
        first = false;
        out << "\n";
    };

    for (const auto &lane : log.lanes) {
        separator();
        out << "{\"ph\":\"M\",\"pid\":" << kPid << ",\"tid\":"
            << lane.index << ",\"name\":\"thread_name\",\"args\":{"
            << "\"name\":\"" << jsonEscape(lane.name) << "\"}}";
    }

    for (const auto &event : log.events) {
        separator();
        out << "{\"ph\":\"" << (event.isSpan ? "X" : "i")
            << "\",\"pid\":" << kPid << ",\"tid\":" << event.lane
            << ",\"name\":\"" << jsonEscape(event.name)
            << "\",\"cat\":\"dac\",\"ts\":" << formatMicros(event.startSec);
        if (event.isSpan)
            out << ",\"dur\":" << formatMicros(event.durSec);
        else
            out << ",\"s\":\"t\""; // thread-scoped instant
        out << ",";
        appendArgs(out, event);
        out << "}";
    }

    out << "\n]}\n";
    return out.str();
}

void
writeChromeTrace(const TraceLog &log, const std::string &path)
{
    std::ofstream file(path);
    if (!file)
        fatalError("cannot open trace output file: " + path);
    file << toChromeTraceJson(log);
    if (!file)
        fatalError("failed writing trace output file: " + path);
}

} // namespace dac::obs
