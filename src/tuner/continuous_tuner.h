#ifndef AIMAI_TUNER_CONTINUOUS_TUNER_H_
#define AIMAI_TUNER_CONTINUOUS_TUNER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "exec/execution_cost.h"
#include "exec/executor.h"
#include "models/repository.h"
#include "robustness/fault_injector.h"
#include "robustness/resilience.h"
#include "robustness/retry_policy.h"
#include "tuner/workload_tuner.h"

namespace aimai {

/// Everything bound to one database needed to implement configurations
/// for real: optimize, execute (building the indexes the plan reads), and
/// measure cost.
struct TuningEnv {
  Database* db = nullptr;
  int database_id = 0;
  StatisticsCatalog* stats = nullptr;
  WhatIfOptimizer* what_if = nullptr;
  IndexManager* indexes = nullptr;
  Executor* executor = nullptr;
  ExecutionCostModel* exec_cost = nullptr;
  Rng* noise_rng = nullptr;
  /// Repeated executions whose median labels the cost (§2.2).
  int cost_samples = 5;

  /// Optional fault injection (chaos testing); nullptr = fault-free.
  FaultInjector* faults = nullptr;
  /// Retry policy for failed/timed-out executions and what-if calls.
  RetryOptions retry;
  /// Counters accumulated by the resilient paths below.
  ResilienceStats resilience;

  struct Measurement {
    std::unique_ptr<PhysicalPlan> plan;  // Executed, with actual stats.
    double median_cost = 0;
    int samples_used = 0;  // < cost_samples when degraded under faults.
  };

  /// Implements `config`, runs `query`'s optimizer-chosen plan (building
  /// only the indexes that plan reads), and measures the median noisy
  /// execution cost. Resilient: what-if timeouts and execution failures
  /// are retried with backoff, lost cost samples degrade the measurement
  /// to fewer samples, and a permanent failure comes back as an error
  /// Status instead of an abort.
  ///
  /// Execution is deterministic, so a plan already executed for this
  /// query is not run again: its actuals come from `executed` (every
  /// fault draw, retry and noise sample still happens as for a run).
  StatusOr<Measurement> TryExecuteAndMeasure(const QuerySpec& query,
                                             const Configuration& config);

  /// CHECK-wrapping convenience for fault-free callers (collection,
  /// benches): aborts if TryExecuteAndMeasure permanently fails, which
  /// cannot happen without an armed FaultInjector.
  Measurement ExecuteAndMeasure(const QuerySpec& query,
                                const Configuration& config);

  /// Records a measurement into the execution-data repository (the
  /// "passive collection" path of §2.3). Returns the plan id.
  int Record(const QuerySpec& query, const Configuration& config,
             Measurement measurement, ExecutionDataRepository* repo) const;

  /// The plans executed for the query measured last, with their actuals,
  /// found by ContentHash() and the executor mode and confirmed by
  /// ContentKey(). Cleared when the query, the executor or the cost model
  /// changes, so it holds one query's configurations at most. Entries are
  /// immutable and shared, so copies of the env share them safely.
  struct ExecutedEntry {
    uint64_t hash = 0;
    ExecMode mode = ExecMode::kBatch;
    std::shared_ptr<const PhysicalPlan> plan;
  };
  struct ExecutedMemo {
    std::string query_fp;
    const Executor* executor = nullptr;
    const ExecutionCostModel* exec_cost = nullptr;
    std::vector<ExecutedEntry> entries;
  };
  ExecutedMemo executed;
};

/// Continuous index tuning (Problem Statement 2, evaluated in §7.9):
/// invoke the tuner iteratively, implement its recommendation, execute,
/// revert on observed regression, and let adaptive comparators retrain on
/// the passively collected execution data between iterations.
///
/// Resilience: measurement failures cost an iteration, not the run;
/// reverts are re-measured to verify the prior configuration really was
/// restored; recommendations that regress repeatedly are quarantined so
/// the loop stops re-implementing a known-bad configuration.
class ContinuousTuner {
 public:
  struct Options {
    int iterations = 10;
    int max_indexes_per_iteration = 5;
    /// λ: observed-cost increase that counts as a regression (and triggers
    /// revert), and the improvement significance used for reporting.
    double regression_threshold = 0.2;
    /// Opt/OptTr semantics: a reverted regression ends tuning because the
    /// estimate-driven tuner would just repeat the recommendation.
    bool stop_on_regression = false;
    int64_t storage_budget_bytes = 0;
    /// Re-measure under the restored configuration after each revert and
    /// confirm the regression is gone (cost back inside the λ band and
    /// the optimizer's plan identical to the pre-regression one).
    bool verify_reverts = true;
    /// A recommendation fingerprint observed to regress this many times
    /// is quarantined: never implemented again within the run.
    int quarantine_after = 2;
    /// Pool for parallel what-if fan-out (passed through to the inner
    /// tuners; also used to warm the cache ahead of measurement loops).
    /// nullptr = SharedPool(). Execution and index materialization stay
    /// serial — only pure optimizer calls run on workers.
    ThreadPool* pool = nullptr;
    /// Cooperative cancellation / drain, polled at every iteration
    /// boundary (and inside the inner tuners' greedy rounds, which
    /// inherit the token). When it fires, resumable runs stop with their
    /// QueryState intact — the service checkpoints and later resumes.
    const CancellationToken* cancel = nullptr;
  };

  /// Comparators may be retrained between iterations (adaptive models);
  /// the factory is called at the start of every iteration.
  using ComparatorFactory = std::function<std::unique_ptr<CostComparator>()>;
  /// Invoked after each iteration's execution data lands in the repo.
  using AdaptHook = std::function<void()>;

  struct IterationRecord {
    int iteration = 0;
    int num_new_indexes = 0;
    double measured_cost = 0;  // Cost of the recommended configuration.
    bool regressed = false;    // Reverted to the previous configuration.
    bool failed = false;       // Measurement failed; configuration kept.
    bool quarantined = false;  // Recommendation was benched; not executed.
  };

  struct QueryTrace {
    std::string query_name;
    double initial_cost = 0;
    double final_cost = 0;  // After reverts.
    std::vector<IterationRecord> iterations;
    bool regress_final = false;     // Last attempted iteration regressed.
    bool improve_cumulative = false;  // final <= (1 - λ) * initial.
    bool completed = true;  // False if the baseline was unmeasurable.
    Configuration final_config;
  };

  /// The whole of a single-query continuous-tuning run's mutable state,
  /// externalized so a run can be paused at an iteration boundary (service
  /// drain), checkpointed through the repository format, and resumed —
  /// possibly by a different service instance — with bit-identical results
  /// to an uninterrupted run (given the same TuningEnv, whose noise RNG
  /// carries the measurement stream). Containers are ordered so the
  /// serialized form is deterministic.
  struct QueryState {
    bool initialized = false;  // Baseline measured; `current` is valid.
    bool finished = false;     // Natural stop reached; resume is a no-op.
    int next_iteration = 1;    // 1-based, matches IterationRecord.
    Configuration current;
    double initial_cost = 0;
    double current_cost = 0;
    double current_est_cost = 0;
    bool regress_final = false;
    std::string last_skipped_fp;
    std::map<std::string, int> regression_counts;
    std::set<std::string> quarantined;
    std::vector<IterationRecord> iterations;
  };

  ContinuousTuner(TuningEnv* env, CandidateGenerator* candidates,
                  Options options)
      : env_(env), candidates_(candidates), options_(options) {}

  /// Single-query continuous tuning (Fig. 11 / Fig. 14).
  QueryTrace TuneQuery(const QuerySpec& query, const Configuration& initial,
                       const ComparatorFactory& comparator_factory,
                       ExecutionDataRepository* repo,
                       const AdaptHook& adapt_hook);

  /// Resumable variant: runs iterations starting from `state` (initialize
  /// a fresh QueryState with state->current = the initial configuration)
  /// and mutates it in place. Stops early — with the state resumable and
  /// `state->finished == false` — when options.cancel fires at an
  /// iteration boundary; otherwise runs to a natural stop and sets
  /// `state->finished`. The returned trace reflects everything done so
  /// far, across all resumptions.
  QueryTrace TuneQueryResumable(const QuerySpec& query, QueryState* state,
                                const ComparatorFactory& comparator_factory,
                                ExecutionDataRepository* repo,
                                const AdaptHook& adapt_hook);

  /// Status-returning entry point (the service surface): validates the
  /// environment wiring and the query, and reports kCancelled when the
  /// token fired before the run finished.
  StatusOr<QueryTrace> TryTuneQuery(const QuerySpec& query,
                                    const Configuration& initial,
                                    const ComparatorFactory& comparator_factory,
                                    ExecutionDataRepository* repo,
                                    const AdaptHook& adapt_hook);

  struct WorkloadTrace {
    double initial_cost = 0;
    double final_cost = 0;
    std::vector<IterationRecord> iterations;
    bool completed = true;
    Configuration final_config;
  };

  /// Workload-level continuous tuning (Table 4): the configuration reverts
  /// if any query in the workload regresses.
  WorkloadTrace TuneWorkload(const std::vector<WorkloadQuery>& workload,
                             const Configuration& initial,
                             const ComparatorFactory& comparator_factory,
                             ExecutionDataRepository* repo,
                             const AdaptHook& adapt_hook);

  /// Assembles the user-facing trace for a (possibly partial) state.
  static QueryTrace TraceFromState(const QuerySpec& query,
                                   const QueryState& state);

 private:
  /// Re-measures under the restored configuration and checks the revert
  /// held: the optimizer's plan estimate matches the pre-regression plan
  /// and the measured cost is back inside the regression band (with slack
  /// for measurement noise). Counts the outcome in env->resilience.
  void VerifyRevert(const QuerySpec& query, const Configuration& restored,
                    double expected_cost, double expected_est_cost);

  TuningEnv* env_;
  CandidateGenerator* candidates_;
  Options options_;
};

}  // namespace aimai

#endif  // AIMAI_TUNER_CONTINUOUS_TUNER_H_
