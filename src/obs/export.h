#ifndef AIMAI_OBS_EXPORT_H_
#define AIMAI_OBS_EXPORT_H_

#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace aimai::obs {

/// `s` escaped for a JSON string body (no surrounding quotes). Metric and
/// span names are dotted identifiers by convention, but every exporter,
/// the bench reports included, must stay valid JSON for any name.
std::string JsonEscape(const std::string& s);

/// Human-readable multi-line dump: counters, gauges, then histograms with
/// count / total-ms / p50 / p90 / p99 (nanosecond histograms rendered in
/// milliseconds). For tuner logs and `aimai_cli --metrics text`.
std::string TextSnapshot(const MetricsSnapshot& snapshot);

/// Machine-readable snapshot:
///   {"counters":{...},"gauges":{...},
///    "histograms":{"name":{"count":..,"sum":..,"min":..,"max":..,
///                          "p50":..,"p90":..,"p99":..}}}
/// Integer-valued fields are emitted as integers, percentiles with one
/// decimal; key order is the registry's sorted name order, so output is
/// stable for goldens.
std::string JsonSnapshot(const MetricsSnapshot& snapshot);

/// chrome://tracing / Perfetto "trace event" JSON: one complete ("ph":"X")
/// event per span, timestamps/durations in microseconds, thread ids as
/// recorded, span depth in args. `dropped` > 0 is reported in metadata so
/// a truncated trace is never mistaken for a complete one.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events,
                            int64_t dropped = 0);

/// Convenience wrappers over the process-wide registry/tracer.
std::string TextSnapshot();
std::string JsonSnapshot();
std::string ChromeTraceJson();

}  // namespace aimai::obs

#endif  // AIMAI_OBS_EXPORT_H_
