#ifndef AIMAI_TRAFFIC_TRAFFIC_OPTIONS_H_
#define AIMAI_TRAFFIC_TRAFFIC_OPTIONS_H_

#include <cstdint>

#include "traffic/arrival.h"
#include "workloads/query_stream.h"

namespace aimai {

/// Configuration of one open-loop traffic run: how many tenant sessions,
/// what each one's arrival process and query stream look like, and the
/// SLO/substrate knobs of the TuningService underneath. Sessions are
/// *lightweight*: thousands of them multiplex over `databases` shared
/// BenchmarkDatabases and one shared service runtime — the traffic jobs
/// are pure what-if query tunings, which never execute queries or
/// materialize indexes, so tenants sharing a database cannot perturb one
/// another's results.
struct TrafficOptions {
  /// Concurrent open-loop tenant sessions.
  int sessions = 64;
  /// Simulated stream horizon per session, seconds.
  double duration_s = 2.0;
  /// Per-session arrival process (kind, base rate, spike shape).
  ArrivalSpec arrival{};
  /// Latency SLO per job; a completed job slower than this (or a job the
  /// watchdog timed out) counts as an SLO miss. 0 disables SLO
  /// accounting.
  int64_t slo_ms = 250;
  /// When true (and slo_ms > 0) the SLO also becomes each job's hard
  /// deadline: the service watchdog escalates overdue attempts to
  /// kTimedOut instead of letting them run arbitrarily long.
  bool enforce_slo_deadline = true;
  /// Scheduling priority of the traffic sessions (>= 1).
  int priority = 1;
  /// Base seed: schedule, streams, and databases all derive from it.
  uint64_t seed = 42;
  /// Distinct shared databases, round-robined over sessions.
  int databases = 4;
  /// Query-stream family every database/stream is built from. The kind
  /// defaults to "synthetic" (resolved in TrafficEngine) and the spec's
  /// seed/db_name are derived per database from `seed`.
  QueryStreamSpec stream{};
  /// Replay speed: wall seconds = simulated seconds / time_compression.
  /// 0 dispatches the whole schedule as fast as possible (max-pressure
  /// mode); 1 replays in real time. When dispatch falls behind schedule
  /// it bursts to catch up — open-loop arrivals never wait for
  /// completions.
  double time_compression = 0;
  /// Service substrate: runner fleet (also the in-flight bound) and the
  /// queue bound load is shed against.
  int runners = 8;
  int max_queued = 256;
  /// Record each completed job's recommendation key (config fingerprint +
  /// plan costs) in the report, in submission order — the bit-identity
  /// currency for closed-subset guards. Off by default: at 1k+ sessions
  /// the keys are pure overhead.
  bool capture_results = false;

  Status Validate() const;
};

}  // namespace aimai

#endif  // AIMAI_TRAFFIC_TRAFFIC_OPTIONS_H_
