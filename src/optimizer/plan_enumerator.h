#ifndef AIMAI_OPTIMIZER_PLAN_ENUMERATOR_H_
#define AIMAI_OPTIMIZER_PLAN_ENUMERATOR_H_

#include <memory>
#include <vector>

#include "catalog/configuration.h"
#include "catalog/database.h"
#include "common/status.h"
#include "exec/plan.h"
#include "optimizer/cardinality_estimator.h"
#include "optimizer/cost_model.h"
#include "optimizer/query.h"
#include "optimizer/statistics.h"

namespace aimai {

/// Cost-based physical plan enumeration under a given index configuration.
///
/// The search space follows the classical System-R recipe adapted to a
/// modern executor: per-table access-path selection (heap scan, covering
/// index scan, index seek with optional key lookup and residual filter,
/// columnstore scan), dynamic-programming join ordering over connected
/// subsets of at most 10 tables, three join implementations,
/// hash vs. sort+stream aggregation, and a plan-level parallelism choice.
/// Estimates come from `CardinalityEstimator`; costs from
/// `OptimizerCostModel` (the optimizer's *belief*, not ground truth).
class PlanEnumerator {
 public:
  PlanEnumerator(const Database* db, StatisticsCatalog* stats);

  /// InvalidArgument unless `query` lists each table once, joins only
  /// tables it lists, joins at most 10 tables, and its join graph is
  /// connected. Optimize requires all four.
  static Status CheckJoinGraph(const QuerySpec& query);

  /// Returns the cheapest (by estimated cost) physical plan for `query`
  /// under `config`. Every node carries est_rows / est_access_rows /
  /// est_executions / est_cost / est_bytes*.
  std::unique_ptr<PhysicalPlan> Optimize(const QuerySpec& query,
                                         const Configuration& config);

 private:
  struct AccessPath {
    std::unique_ptr<PlanNode> plan;
    double rows = 0;
  };

  /// Cheapest access path for one table given the configuration.
  AccessPath BestAccessPath(const QuerySpec& query, int table_id,
                            const Configuration& config);

  /// Builds the parameterized inner side of a nested-loop join on
  /// `join_col` of `table_id`, or nullptr if no viable inner exists.
  std::unique_ptr<PlanNode> BuildNljInner(const QuerySpec& query,
                                          int table_id, int join_col,
                                          const Configuration& config,
                                          double outer_rows);

  /// Annotates every candidate and keeps the cheapest (the first on ties);
  /// nullptr when there are none.
  std::unique_ptr<PlanNode> Cheapest(
      std::vector<std::unique_ptr<PlanNode>> candidates);

  /// Join-order search over the access paths: DP over connected subsets.
  std::unique_ptr<PlanNode> EnumerateJoins(
      const QuerySpec& query, const Configuration& config,
      std::vector<AccessPath> base_paths, double* out_rows);

  /// Builds one annotated join node over `left` and `right` (a merge join
  /// sorts both first).
  std::unique_ptr<PlanNode> MakeJoin(PhysOp op, std::unique_ptr<PlanNode> left,
                                     std::unique_ptr<PlanNode> right,
                                     ColumnRef left_col, ColumnRef right_col,
                                     double out_rows);

  /// Adds aggregation / ordering / top on top of the join tree.
  std::unique_ptr<PlanNode> FinishPlan(const QuerySpec& query,
                                       std::unique_ptr<PlanNode> input,
                                       double input_rows);

  double Annotate(PlanNode* node) {
    return cost_model_.AnnotateSubtree(node, /*dop=*/1);
  }

  const Database* db_;
  StatisticsCatalog* stats_;
  CardinalityEstimator card_;
  OptimizerCostModel cost_model_;
};

}  // namespace aimai

#endif  // AIMAI_OPTIMIZER_PLAN_ENUMERATOR_H_
