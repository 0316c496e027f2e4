/**
 * @file
 * Trace-buffer exporters: Chrome `trace_event` JSON (the JSON Array
 * Format accepted by chrome://tracing and Perfetto) and a flat CSV
 * sink.
 *
 * Cycle timestamps are converted to microseconds with the GPU core
 * frequency so the trace timeline reads in simulated real time. Each
 * distinct event name gets its own `tid` lane, labelled with a
 * `thread_name` metadata record, which groups stage activity the way
 * Daisen lays out unit timelines.
 */

#ifndef MSIM_OBS_TRACE_EXPORT_HH
#define MSIM_OBS_TRACE_EXPORT_HH

#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.hh"

namespace msim::obs
{

/**
 * A Chrome trace_event timestamp or duration: microseconds with three
 * decimals (the host timeline writes the same format).
 */
std::string formatUs(double us);

/** Write events as Chrome trace_event JSON. */
void writeChromeTrace(std::ostream &os,
                      const std::vector<TraceEvent> &events,
                      double frequencyMhz);

/** Convenience: export a buffer to @p path; fatal on I/O error. */
void writeChromeTrace(const std::string &path, const TraceBuffer &buf,
                      double frequencyMhz);

/** Flat CSV: name,category,frame,begin_cycle,end_cycle,arg. */
void writeTraceCsv(std::ostream &os,
                   const std::vector<TraceEvent> &events);
void writeTraceCsv(const std::string &path, const TraceBuffer &buf);

} // namespace msim::obs

#endif // MSIM_OBS_TRACE_EXPORT_HH
