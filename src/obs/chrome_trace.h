/**
 * @file
 * Chrome trace_event JSON export: a TraceLog rendered in the format
 * chrome://tracing and Perfetto load directly. Spans become complete
 * ("X") events, instants become "i" events, and every lane gets a
 * thread_name metadata record, so the PR-1 ThreadPool's workers show
 * up as one named track each.
 */

#ifndef DAC_OBS_CHROME_TRACE_H
#define DAC_OBS_CHROME_TRACE_H

#include <string>

#include "obs/tracer.h"

namespace dac::obs {

/** Render the log as a chrome://tracing JSON object. */
[[nodiscard]] std::string toChromeTraceJson(const TraceLog &log);

/** toChromeTraceJson() written to a file; fatalError() on I/O error. */
void writeChromeTrace(const TraceLog &log, const std::string &path);

} // namespace dac::obs

#endif // DAC_OBS_CHROME_TRACE_H
