#include "tuner/workload_tuner.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/check.h"
#include "obs/obs.h"
#include "tuner/parallel.h"

namespace aimai {

namespace {

/// Greedy depth of each query-level search in phase (a).
constexpr int kQueryPhaseMaxIndexes = 3;

}  // namespace

WorkloadTuningResult WorkloadLevelTuner::Tune(
    const std::vector<WorkloadQuery>& workload, const Configuration& base,
    const CostComparator& comparator) {
  AIMAI_SPAN("tuner.workload_tune");
  ThreadPool* tp = options_.pool != nullptr ? options_.pool : SharedPool();
  WorkloadTuningResult result;
  result.recommended = base;

  // Base plans (parallel what-if; the weighted sum accumulates serially
  // in workload order so floating-point association never varies).
  result.base_plans.resize(workload.size());
  TunerParallelFor(tp, workload.size(), [&](size_t i) {
    result.base_plans[i] = what_if_->Optimize(workload[i].query, base);
  });
  for (size_t i = 0; i < workload.size(); ++i) {
    result.base_est_cost +=
        workload[i].weight * result.base_plans[i]->est_total_cost;
  }

  // Phase (a): query-level search seeds the candidate pool. Each query's
  // tuner runs independently (possibly on a worker thread); the merge
  // below walks results in workload order and the pool is then sorted by
  // canonical name, so the pool's contents and order are independent of
  // scheduling. Nested fan-out inside qtuner degrades to inline loops on
  // worker threads (see ThreadPool::OnWorkerThread).
  std::vector<IndexDef> pool;
  {
    QueryLevelTuner::Options qopts;
    qopts.max_new_indexes = kQueryPhaseMaxIndexes;
    qopts.storage_budget_bytes = options_.storage_budget_bytes;
    qopts.pool = tp;
    qopts.cancel = options_.cancel;
    QueryLevelTuner qtuner(db_, what_if_, candidates_, qopts);
    std::vector<QueryTuningResult> qresults(workload.size());
    TunerParallelFor(tp, workload.size(), [&](size_t i) {
      qresults[i] = qtuner.Tune(workload[i].query, base, comparator);
    });
    std::set<std::string> seen;
    for (const QueryTuningResult& qr : qresults) {
      for (const IndexDef& def : qr.new_indexes) {
        if (seen.insert(def.CanonicalName()).second) pool.push_back(def);
      }
    }
    std::sort(pool.begin(), pool.end(),
              [](const IndexDef& a, const IndexDef& b) {
                return a.CanonicalName() < b.CanonicalName();
              });
  }

  // Phase (b): greedy selection by weighted estimated benefit under the
  // per-query no-regression constraint.
  Configuration current = base;
  std::vector<std::shared_ptr<const PhysicalPlan>> current_plans =
      result.base_plans;
  double current_cost = result.base_est_cost;

  for (int round = 0; round < options_.max_new_indexes; ++round) {
    if (Cancelled(options_.cancel)) break;  // Stop at a round boundary.
    AIMAI_COUNTER_INC("tuner.workload.rounds");

    // Candidates admissible this round, with their configurations.
    std::vector<size_t> eligible;
    std::vector<Configuration> configs;
    for (size_t k = 0; k < pool.size(); ++k) {
      if (current.Contains(pool[k].CanonicalName())) continue;
      Configuration next = current;
      next.Add(pool[k]);
      if (options_.storage_budget_bytes > 0 &&
          next.EstimateSizeBytes(*db_) > options_.storage_budget_bytes) {
        continue;
      }
      eligible.push_back(k);
      configs.push_back(std::move(next));
    }

    // Parallel mode prefetches every (candidate, query) plan into
    // index-addressed slots; serial mode leaves the slots empty and the
    // reduce fills them lazily, keeping the serial early break on the
    // first regressed query. Plans per key are deterministic, so the
    // reduce — always serial, always in candidate-then-query order —
    // adopts the same index with the same cost either way.
    const size_t nq = workload.size();
    std::vector<std::vector<std::shared_ptr<const PhysicalPlan>>> prefetched(
        eligible.size());
    if (WouldParallelize(tp, eligible.size() * nq)) {
      for (auto& slot : prefetched) slot.resize(nq);
      TunerParallelFor(tp, eligible.size() * nq, [&](size_t t) {
        // A cancel (user, drain, or watchdog escalation) stops the
        // prefetch fan-out at per-plan granularity instead of letting a
        // large round run its full O(candidates x queries) course.
        if (Cancelled(options_.cancel)) return;
        const size_t j = t / nq;
        const size_t i = t % nq;
        AIMAI_SPAN("tuner.candidate_eval");
        prefetched[j][i] = what_if_->Optimize(workload[i].query, configs[j]);
      });
      // An abandoned prefetch leaves null slots; stop at the round
      // boundary before the reduce can touch them. Nothing is
      // adopted, so the mid-round stop never changes the configuration.
      if (Cancelled(options_.cancel)) break;
    }

    const IndexDef* best_index = nullptr;
    double best_cost = current_cost;
    std::vector<std::shared_ptr<const PhysicalPlan>> best_plans;

    bool cancelled_mid = false;
    for (size_t j = 0; j < eligible.size(); ++j) {
      if (Cancelled(options_.cancel)) {
        cancelled_mid = true;
        break;
      }
      double cost = 0;
      std::vector<std::shared_ptr<const PhysicalPlan>> plans;
      bool regressed = false;
      AIMAI_COUNTER_INC("tuner.workload.candidates_evaluated");
      for (size_t i = 0; i < nq; ++i) {
        // Lazy (serial) mode issues a what-if call per slot, so it polls
        // per plan; prefetched mode is pure memory reads and the
        // per-candidate poll above suffices.
        if (prefetched[j].empty() && Cancelled(options_.cancel)) {
          cancelled_mid = true;
          break;
        }
        std::shared_ptr<const PhysicalPlan> plan =
            !prefetched[j].empty()
                ? prefetched[j][i]
                : what_if_->Optimize(workload[i].query, configs[j]);
        AIMAI_SPAN("tuner.comparator_decide");
        if (comparator.IsRegression(*result.base_plans[i], *plan)) {
          regressed = true;
          break;
        }
        cost += workload[i].weight * plan->est_total_cost;
        plans.push_back(std::move(plan));
      }
      if (cancelled_mid) break;
      if (regressed) {
        AIMAI_COUNTER_INC("tuner.workload.regression_vetoes");
        continue;
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_index = &pool[eligible[j]];
        best_plans = std::move(plans);
      }
    }
    // Mid-round stop: adopt nothing — a cancelled round is unspent, so a
    // resumed or retried run replays it bit-identically.
    if (cancelled_mid) break;

    if (best_index == nullptr) break;
    AIMAI_COUNTER_INC("tuner.workload.indexes_adopted");
    current.Add(*best_index);
    result.new_indexes.push_back(*best_index);
    current_plans = std::move(best_plans);
    current_cost = best_cost;
  }

  result.recommended = current;
  result.final_plans = std::move(current_plans);
  result.final_est_cost = current_cost;
  return result;
}

StatusOr<WorkloadTuningResult> WorkloadLevelTuner::TryTune(
    const std::vector<WorkloadQuery>& workload, const Configuration& base,
    const CostComparator& comparator) {
  if (db_ == nullptr || what_if_ == nullptr || candidates_ == nullptr) {
    return Status::FailedPrecondition("WorkloadLevelTuner is not fully wired");
  }
  if (workload.empty()) {
    return Status::InvalidArgument("workload is empty");
  }
  for (const WorkloadQuery& wq : workload) {
    AIMAI_RETURN_IF_ERROR(what_if_->ValidateQuery(wq.query));
    if (wq.weight < 0) {
      return Status::InvalidArgument("workload weight is negative");
    }
  }
  WorkloadTuningResult result = Tune(workload, base, comparator);
  if (Cancelled(options_.cancel)) {
    return Status::Cancelled("workload tuning cancelled mid-round");
  }
  return result;
}

}  // namespace aimai
