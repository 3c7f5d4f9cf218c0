#ifndef AIMAI_SERVICE_OPTIONS_H_
#define AIMAI_SERVICE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "robustness/circuit_breaker.h"
#include "service/learning/learning_options.h"
#include "robustness/fault_injector.h"
#include "robustness/retry_policy.h"
#include "tuner/comparator.h"
#include "tuner/continuous_tuner.h"

namespace aimai {

/// Configuration of the process-wide tuning service: the shared substrates
/// (fan-out pool, plan-cache domain, model registry) and the admission
/// limits. Set the fields (or name them in a designated initializer: every
/// member has a default, `{}` for class types, so -Wextra stays quiet) and
/// check with Validate() — TuningService::Create validates for you and
/// refuses bad options with InvalidArgument instead of constructing a
/// half-broken runtime.
struct ServiceOptions {
  /// Worker threads of the shared fan-out pool. 0 resolves through
  /// ConfiguredThreads() (--threads flag > AIMAI_THREADS env > CMake
  /// default > hardware concurrency).
  int threads = 0;
  /// Runner threads executing jobs. Each runs one job at a time, so this
  /// is also the in-flight bound (clamped to max_inflight_jobs).
  int job_runners = 4;
  /// Hard cap on concurrently running jobs across all sessions.
  int max_inflight_jobs = 8;
  /// Jobs queued beyond this are shed at submit with ResourceExhausted.
  int max_queued_jobs = 64;
  /// Sessions beyond this are refused at CreateSession.
  int max_sessions = 64;
  /// Per-shard capacity of the process-wide what-if plan cache shared
  /// (namespaced) by every session.
  int64_t cache_shard_capacity = 1 << 12;

  /// --- Fault tolerance (PR 6). ---

  /// Default per-attempt wall-clock deadline for jobs, enforced by the
  /// watchdog thread. 0 disables deadlines (and, with
  /// job_stall_timeout_ms == 0, the watchdog itself). Sessions can
  /// override per tenant (SessionOptions::job_timeout_ms).
  int64_t job_timeout_ms = 0;
  /// Watchdog scan interval.
  int watchdog_poll_ms = 10;
  /// A running job whose cancellation-token heartbeat does not advance
  /// for this long is declared stalled and escalated like a timeout.
  /// 0 = stall detection off.
  int64_t job_stall_timeout_ms = 0;
  /// Retry budget for watchdog/crash-killed attempts: max_attempts bounds
  /// the requeues and the backoff schedule is *accounted* (virtual, never
  /// slept) through the existing RetryPolicy.
  RetryOptions job_retry{};
  /// Per-session circuit breaker: a tenant whose jobs keep failing trips
  /// its own breaker (healthy -> quarantined) without touching any other
  /// tenant's results.
  CircuitBreaker::Options session_breaker{};
  /// Directory for the crash-safe checkpoint journal (atomic writes +
  /// recovery-on-start with quarantine of corrupt entries). Empty = no
  /// journal; Drain() then skips journaling checkpointed jobs.
  std::string journal_dir{};
  /// Service-layer chaos injection (kJobCrash / kJobStall /
  /// kTornCheckpointWrite / kModelPublishFailure). nullptr = fault-free;
  /// must outlive the service.
  FaultInjector* faults = nullptr;

  /// --- Online learning loop (PR 7). ---

  /// Execution-feedback harvesting, drift-triggered background retraining,
  /// and per-tenant adapted publish. Off by default; when enabled, every
  /// session that names a registry model participates.
  LearningOptions learning{};


  Status Validate() const;
};

/// Everything one tenant session pins: its database environment, its
/// search limits, its comparator thresholds, and (optionally) the name of
/// a registry model that gates regressions. The env comes from the caller
/// (e.g. BenchmarkDatabase::MakeEnv) — the service replaces env.what_if
/// with a session-scoped optimizer bound to the shared cache domain, so
/// callers never share plans across tenants by accident.
struct SessionOptions {
  /// Unique tenant id; doubles as the cache-domain namespace.
  std::string name{};
  /// Scheduling priority; higher claims runners first. Must be >= 1.
  int priority = 1;
  /// Database substrate the session tunes against. All pointers except
  /// `faults` must be wired.
  TuningEnv env{};
  /// Thresholds for the estimate-driven comparator (and λ for the
  /// continuous loop's regression detection).
  ComparatorOptions comparator{};
  /// Greedy search depth per tuning call / continuous iteration.
  int max_new_indexes = 5;
  int64_t storage_budget_bytes = 0;  // 0 = unlimited.
  /// Continuous-tuning iteration budget per job.
  int iterations = 10;
  bool stop_on_regression = false;
  bool verify_reverts = true;
  int quarantine_after = 2;
  /// Name of a ModelRegistry entry whose classifier gates regressions;
  /// empty = pure optimizer comparator. The latest published version is
  /// picked up at every continuous iteration (hot swap).
  std::string model{};
  /// Per-attempt deadline override for this tenant's jobs: -1 inherits
  /// ServiceOptions::job_timeout_ms, 0 disables deadlines for this
  /// session, > 0 is the deadline in ms.
  int64_t job_timeout_ms = -1;


  Status Validate() const;
};

}  // namespace aimai

#endif  // AIMAI_SERVICE_OPTIONS_H_
