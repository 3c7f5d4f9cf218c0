#ifndef AIMAI_ROBUSTNESS_RESILIENCE_H_
#define AIMAI_ROBUSTNESS_RESILIENCE_H_

#include <cstdint>

#include "obs/metrics.h"

namespace aimai {

/// Counters the resilient paths accumulate so a tuning run can report what
/// it survived. Published by the ContinuousTuner and asserted on by the
/// fault-injection tests ("accurate stats" is itself an invariant: a
/// swallowed failure that is not counted is a silent bug).
///
/// This is a thin compatibility shim over the observability registry
/// (src/obs/): the plain fields stay because the fault-injection tests
/// assert them exactly and per-env isolation matters there, but the
/// canonical telemetry pipeline is `PublishDeltaTo`, which lands them in
/// the shared MetricsRegistry under "resilience.*" names. Publication is
/// delta-based, so repeated publishes — or several components publishing
/// the same stats object — never double-count.
struct ResilienceStats {
  // Execution / measurement path (TuningEnv).
  int64_t execution_attempts = 0;   // Executor attempts, incl. retries.
  int64_t execution_retries = 0;    // Extra attempts beyond the first.
  int64_t execution_faults = 0;     // Execution attempts lost to faults.
  int64_t execution_failures = 0;   // Permanent (post-retry) failures.
  int64_t what_if_timeouts = 0;     // Injected/observed optimize timeouts.
  int64_t cost_samples_dropped = 0; // Lost samples within a measurement.
  int64_t degraded_measurements = 0;  // Measurements with < cost_samples.
  double total_backoff_ms = 0;      // Virtual backoff time accounted.

  // Tuning loop (ContinuousTuner).
  int64_t failed_iterations = 0;    // Iterations lost to measurement error.
  int64_t reverts = 0;              // Observed regressions rolled back.
  int64_t reverts_verified = 0;     // Rollbacks re-measured and confirmed.
  int64_t revert_verification_failures = 0;
  int64_t quarantined_recommendations = 0;  // Repeat offenders benched.
  int64_t quarantine_skips = 0;     // Iterations that skipped a benched rec.

  /// Adds the growth since the previous publish to `registry`'s
  /// "resilience.*" counters (and the backoff gauge). Idempotent under
  /// repetition: publishing twice with no new events adds zero. No-op
  /// while obs is disabled (the unpublished delta is retained, not lost).
  void PublishDeltaTo(obs::MetricsRegistry* registry);

 private:
  /// Field values as of the last PublishDeltaTo.
  struct Published {
    int64_t counters[13] = {};
    double backoff_ms = 0;
  };
  Published published_;
};

}  // namespace aimai

#endif  // AIMAI_ROBUSTNESS_RESILIENCE_H_
