/**
 * @file
 * Trace serialisation: JSONL writing of tracepoint records and
 * time-series samples, and the matching reader used by the
 * trace_summary tool and the tests.
 *
 * The on-disk format is one self-describing JSON object per line,
 * discriminated by "kind":
 *
 *   {"kind":"event","workload":"web","policy":"tpp","tick":123,
 *    "event":"pg_demote","node":0,"aux":1,"type":"anon","pfn":7,
 *    "asid":0,"vpn":4242}
 *   {"kind":"sample","workload":"web","policy":"tpp","tick":100000000,
 *    "window_ns":100000000,"vm":{"pgpromote_success":12,...},
 *    "nodes":[{"nid":0,"free":123,"active_anon":...},...]}
 *
 * Lines are independent, so traces from several runs can share one
 * file (the bench binaries append every result of a sweep) and any
 * line-oriented tool can slice them.
 */

#ifndef TPP_TRACE_TRACE_IO_HH
#define TPP_TRACE_TRACE_IO_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "trace/sampler.hh"
#include "trace/trace.hh"

namespace tpp {

/**
 * @p text escaped for a JSON string: quote and backslash get a
 * backslash, control characters become \u00XX. Every JSON writer in the
 * tree (trace JSONL, result JSON, trace_summary --json) uses this one.
 */
std::string jsonEscape(const std::string &text);

/** Write one tracepoint record as a JSONL "event" line. */
void writeTraceEventJsonl(std::ostream &out, const TraceRecord &record,
                          const std::string &workload,
                          const std::string &policy);

/** Write one time-series point as a JSONL "sample" line. */
void writeSamplePointJsonl(std::ostream &out, const TimeSeriesPoint &point,
                           const std::string &workload,
                           const std::string &policy);

/** One parsed "event" line: the record plus its run tag. */
struct TaggedTraceRecord {
    std::string workload;
    std::string policy;
    TraceRecord record;
};

/**
 * Parse every "event" line of a JSONL trace stream; other kinds are
 * skipped. Malformed lines fatal() with the offending line number.
 */
std::vector<TaggedTraceRecord> readTraceEventsJsonl(std::istream &in);

/** Parse "pg_demote"-style names back to events; fatal() on unknown. */
TraceEvent traceEventFromName(const std::string &name);

} // namespace tpp

#endif // TPP_TRACE_TRACE_IO_HH
