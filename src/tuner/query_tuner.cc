#include "tuner/query_tuner.h"

#include <utility>

#include "common/check.h"
#include "obs/obs.h"
#include "tuner/parallel.h"

namespace aimai {

QueryTuningResult QueryLevelTuner::Tune(const QuerySpec& query,
                                        const Configuration& base,
                                        const CostComparator& comparator) {
  AIMAI_SPAN("tuner.query_tune");
  ThreadPool* tp = options_.pool != nullptr ? options_.pool : SharedPool();
  QueryTuningResult result;
  result.recommended = base;
  result.base_plan = what_if_->Optimize(query, base);
  result.final_plan = result.base_plan;

  const std::vector<IndexDef> candidates =
      candidates_->Generate(query, base);

  Configuration current = base;
  std::shared_ptr<const PhysicalPlan> current_plan = result.base_plan;

  for (int round = 0; round < options_.max_new_indexes; ++round) {
    if (Cancelled(options_.cancel)) break;  // Stop at a round boundary.
    AIMAI_COUNTER_INC("tuner.query.rounds");

    // Candidates admissible this round (not present, within budget), with
    // the configuration each would produce.
    std::vector<size_t> eligible;
    std::vector<Configuration> configs;
    for (size_t k = 0; k < candidates.size(); ++k) {
      if (current.Contains(candidates[k].CanonicalName())) continue;
      Configuration next = current;
      next.Add(candidates[k]);
      if (options_.storage_budget_bytes > 0 &&
          next.EstimateSizeBytes(*db_) > options_.storage_budget_bytes) {
        continue;
      }
      eligible.push_back(k);
      configs.push_back(std::move(next));
    }

    // Fan out the what-if calls: pure, cached, and independent. The
    // decisions below replay serially in candidate order, so the
    // comparator sees exactly the decision stream the serial tuner
    // produces — recommendations are bit-identical at any thread count.
    std::vector<std::shared_ptr<const PhysicalPlan>> plans(eligible.size());
    TunerParallelFor(tp, eligible.size(), [&](size_t j) {
      AIMAI_SPAN("tuner.candidate_eval");
      plans[j] = what_if_->Optimize(query, configs[j]);
    });

    const IndexDef* best_index = nullptr;
    std::shared_ptr<const PhysicalPlan> best_plan = current_plan;

    for (size_t j = 0; j < eligible.size(); ++j) {
      const std::shared_ptr<const PhysicalPlan>& plan = plans[j];
      AIMAI_COUNTER_INC("tuner.query.candidates_evaluated");
      bool adopt = false;
      {
        AIMAI_SPAN("tuner.comparator_decide");
        // No-regression constraint against the invocation configuration.
        if (comparator.IsRegression(*result.base_plan, *plan)) {
          AIMAI_COUNTER_INC("tuner.query.regression_vetoes");
        } else if (comparator.IsImprovement(*best_plan, *plan)) {
          // Adopt only predicted improvements over the best plan so far.
          adopt = true;
        }
      }
      if (adopt) {
        best_index = &candidates[eligible[j]];
        best_plan = plan;
      }
    }

    if (best_index == nullptr) break;
    AIMAI_COUNTER_INC("tuner.query.indexes_adopted");
    current.Add(*best_index);
    result.new_indexes.push_back(*best_index);
    current_plan = std::move(best_plan);
  }

  result.recommended = current;
  result.final_plan = std::move(current_plan);
  return result;
}

StatusOr<QueryTuningResult> QueryLevelTuner::TryTune(
    const QuerySpec& query, const Configuration& base,
    const CostComparator& comparator) {
  if (db_ == nullptr || what_if_ == nullptr || candidates_ == nullptr) {
    return Status::FailedPrecondition("QueryLevelTuner is not fully wired");
  }
  AIMAI_RETURN_IF_ERROR(what_if_->ValidateQuery(query));
  QueryTuningResult result = Tune(query, base, comparator);
  if (Cancelled(options_.cancel)) {
    return Status::Cancelled("query tuning cancelled mid-round");
  }
  return result;
}

}  // namespace aimai
