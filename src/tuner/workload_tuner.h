#ifndef AIMAI_TUNER_WORKLOAD_TUNER_H_
#define AIMAI_TUNER_WORKLOAD_TUNER_H_

#include <memory>
#include <vector>

#include "tuner/query_tuner.h"

namespace aimai {

/// Result of workload-level tuning. Plans are shared with the what-if
/// cache and pinned here — valid after cache clears and evictions.
struct WorkloadTuningResult {
  Configuration recommended;
  std::vector<IndexDef> new_indexes;
  /// Final per-query plans under the recommendation (workload order).
  std::vector<std::shared_ptr<const PhysicalPlan>> final_plans;
  std::vector<std::shared_ptr<const PhysicalPlan>> base_plans;
  double base_est_cost = 0;   // Weighted optimizer cost under base config.
  double final_est_cost = 0;  // Under the recommendation.
};

/// Workload-level search (§5, phase b): pool candidates from the
/// query-level phase, then greedily add the index with the best weighted
/// estimated-cost reduction, subject to the storage budget, the index
/// count cap, and the per-query no-regression constraint — the comparator
/// must not flag ANY query's plan under the new configuration as a
/// regression versus its plan under the invocation configuration.
class WorkloadLevelTuner {
 public:
  struct Options {
    int max_new_indexes = 5;
    int64_t storage_budget_bytes = 0;  // 0 = unlimited.
    /// Pool for parallel fan-out; nullptr = SharedPool(). Phase (a) runs
    /// whole per-query tuners concurrently and phase (b) fans out the
    /// per-candidate what-if evaluations; the greedy reduce itself stays
    /// serial with ties broken by canonical index name, so the
    /// recommendation is identical at any thread count (every comparator
    /// answers as a pure function of the plan pair).
    ThreadPool* pool = nullptr;
    /// Cooperative cancellation, polled before phase (a) and at every
    /// phase-(b) round boundary (and inside the per-query tuners, which
    /// inherit the token). nullptr = never cancelled.
    const CancellationToken* cancel = nullptr;
  };

  WorkloadLevelTuner(const Database* db, WhatIfOptimizer* what_if,
                     CandidateGenerator* candidates)
      : WorkloadLevelTuner(db, what_if, candidates, Options()) {}
  WorkloadLevelTuner(const Database* db, WhatIfOptimizer* what_if,
                     CandidateGenerator* candidates, Options options)
      : db_(db),
        what_if_(what_if),
        candidates_(candidates),
        options_(options) {}

  WorkloadTuningResult Tune(const std::vector<WorkloadQuery>& workload,
                            const Configuration& base,
                            const CostComparator& comparator);

  /// Status-returning entry point: validates wiring and every workload
  /// query, rejects empty workloads, and reports kCancelled when the
  /// cancellation token fired mid-search.
  StatusOr<WorkloadTuningResult> TryTune(
      const std::vector<WorkloadQuery>& workload, const Configuration& base,
      const CostComparator& comparator);

 private:
  const Database* db_;
  WhatIfOptimizer* what_if_;
  CandidateGenerator* candidates_;
  Options options_;
};

}  // namespace aimai

#endif  // AIMAI_TUNER_WORKLOAD_TUNER_H_
