#ifndef AIMAI_TRAFFIC_TRAFFIC_ENGINE_H_
#define AIMAI_TRAFFIC_TRAFFIC_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/service.h"
#include "traffic/traffic_options.h"

namespace aimai {

/// One scheduled arrival: at simulated time `t_s`, session `session`
/// submits `query`.
struct TrafficEvent {
  double t_s = 0;
  int session = 0;
  QuerySpec query;
};

/// Per-tenant open-loop accounting. The invariant every run must close:
///   arrived == admitted + shed + rejected
///   admitted == completed + timed_out + failed + cancelled
/// and the engine-side admitted/shed tallies must equal the admission
/// controller's per-tenant buckets exactly.
struct TenantTraffic {
  int64_t arrived = 0;
  int64_t admitted = 0;
  int64_t shed = 0;      // ResourceExhausted at submit (load shed).
  int64_t rejected = 0;  // Any other submit failure.
  int64_t completed = 0;
  int64_t timed_out = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;
  int64_t slo_miss = 0;
};

/// Arrival/outcome tallies for one phase of the run (steady vs. the
/// flash-crowd spike window).
struct TrafficPhaseStats {
  int64_t arrived = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t completed = 0;
  int64_t timed_out = 0;
  int64_t slo_miss = 0;
  double p99_ms = 0;

  /// Misses / (completed + timed out); 0 when nothing finished.
  double SloMissRate() const {
    const int64_t outcomes = completed + timed_out;
    if (outcomes == 0) return 0.0;
    return static_cast<double>(slo_miss) / static_cast<double>(outcomes);
  }
};

/// The whole run's report.
struct TrafficReport {
  int64_t arrived = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  int64_t rejected = 0;
  int64_t completed = 0;
  int64_t timed_out = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;
  int64_t slo_miss = 0;

  /// Wall-clock run time (dispatch start to last job terminal), seconds.
  double wall_s = 0;
  /// Completed jobs per wall-clock second.
  double jobs_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double mean_ms = 0;

  TrafficPhaseStats steady;
  TrafficPhaseStats flash;

  std::map<std::string, TenantTraffic> tenants;
  /// True when every engine-side tenant bucket equals the admission
  /// controller's (checked at the end of Run()).
  bool admission_matches = true;

  /// Recommendation keys of completed jobs in submission order (only when
  /// options.capture_results).
  std::vector<std::string> result_keys;

  /// Misses / (completed + timed out); 0 when nothing finished.
  double SloMissRate() const;

  /// The shed-accounting equation, globally and per tenant, including
  /// the admission controller cross-check.
  bool AccountingBalanced() const;
};

/// The open-loop traffic engine: builds a deterministic arrival schedule
/// (thousands of per-session Poisson/diurnal/flash streams, queries drawn
/// from MakePreparedQueryStream generators), then replays it
/// against a TuningService — submitting SLO-deadlined query-tuning jobs
/// through per-tenant sessions, counting what admission sheds, and
/// reporting sustained jobs/sec and latency percentiles per phase.
///
/// Determinism: BuildSchedule() is a pure function of the options (the
/// per-session Rng streams split off the base seed), so two engines with
/// equal options produce byte-identical schedules on any machine and any
/// runner count. Outcome *timing* (latency, shed counts under pacing) is
/// load-dependent by design — only the schedule and, for closed subsets,
/// the per-job recommendations are bit-stable.
class TrafficEngine {
 public:
  explicit TrafficEngine(TrafficOptions options);

  const TrafficOptions& options() const { return options_; }

  /// Builds (once) the shared databases + query streams and the full
  /// time-sorted arrival schedule.
  StatusOr<std::vector<TrafficEvent>> BuildSchedule();

  /// Runs the schedule against a fresh TuningService and reports.
  StatusOr<TrafficReport> Run();

 private:
  Status EnsurePrepared();

  TrafficOptions options_;
  std::vector<std::unique_ptr<IQueryStreamGenerator>> generators_;
  std::vector<TrafficEvent> schedule_;
  bool schedule_built_ = false;
};

}  // namespace aimai

#endif  // AIMAI_TRAFFIC_TRAFFIC_ENGINE_H_
