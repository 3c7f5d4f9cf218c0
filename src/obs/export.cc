#include "obs/export.h"

#include "common/string_util.h"

namespace aimai::obs {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

double NsToMs(double ns) { return ns / 1e6; }

}  // namespace

std::string TextSnapshot(const MetricsSnapshot& snapshot) {
  std::string out = "== metrics ==\n";
  if (!snapshot.counters.empty()) {
    out += "counters:\n";
    for (const auto& [name, value] : snapshot.counters) {
      out += StrFormat("  %-44s %12lld\n", name.c_str(),
                       static_cast<long long>(value));
    }
  }
  if (!snapshot.gauges.empty()) {
    out += "gauges:\n";
    for (const auto& [name, value] : snapshot.gauges) {
      out += StrFormat("  %-44s %12.3f\n", name.c_str(), value);
    }
  }
  if (!snapshot.histograms.empty()) {
    out += "histograms (latencies in ms):\n";
    out += StrFormat("  %-44s %10s %12s %10s %10s %10s\n", "name", "count",
                     "total", "p50", "p90", "p99");
    for (const auto& [name, h] : snapshot.histograms) {
      out += StrFormat("  %-44s %10lld %12.3f %10.4f %10.4f %10.4f\n",
                       name.c_str(), static_cast<long long>(h.count),
                       NsToMs(static_cast<double>(h.sum)), NsToMs(h.p50),
                       NsToMs(h.p90), NsToMs(h.p99));
    }
  }
  return out;
}

std::string JsonSnapshot(const MetricsSnapshot& snapshot) {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += StrFormat("%s\"%s\":%lld", first ? "" : ",",
                     JsonEscape(name).c_str(), static_cast<long long>(value));
    first = false;
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += StrFormat("%s\"%s\":%.6g", first ? "" : ",",
                     JsonEscape(name).c_str(), value);
    first = false;
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += StrFormat(
        "%s\"%s\":{\"count\":%lld,\"sum\":%lld,\"min\":%lld,\"max\":%lld,"
        "\"p50\":%.1f,\"p90\":%.1f,\"p99\":%.1f}",
        first ? "" : ",", JsonEscape(name).c_str(),
        static_cast<long long>(h.count), static_cast<long long>(h.sum),
        static_cast<long long>(h.min), static_cast<long long>(h.max), h.p50,
        h.p90, h.p99);
    first = false;
  }
  out += "}}";
  return out;
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& events,
                            int64_t dropped) {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : events) {
    out += StrFormat(
        "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"depth\":%d}}",
        first ? "" : ",", JsonEscape(e.name == nullptr ? "" : e.name).c_str(),
        e.tid, static_cast<double>(e.start_ns) / 1e3,
        static_cast<double>(e.dur_ns) / 1e3, e.depth);
    first = false;
  }
  out += StrFormat("],\"displayTimeUnit\":\"ms\",\"droppedEvents\":%lld}",
                   static_cast<long long>(dropped));
  return out;
}

std::string TextSnapshot() { return TextSnapshot(Registry().Snapshot()); }

std::string JsonSnapshot() { return JsonSnapshot(Registry().Snapshot()); }

std::string ChromeTraceJson() {
  return ChromeTraceJson(Tracer().Events(), Tracer().dropped());
}

}  // namespace aimai::obs
