#ifndef AIMAI_EXEC_VECTORIZED_EXECUTOR_H_
#define AIMAI_EXEC_VECTORIZED_EXECUTOR_H_

#include <vector>

#include "catalog/database.h"
#include "exec/batch.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "index/index_manager.h"

namespace aimai {

/// Columnar batch engine: the executor's engine for every plan shape the
/// enumerator produces. Single-table pipeline segments (an access leaf and
/// the KeyLookup / Filter nodes above it) process candidate rows in
/// selection-vector chunks of `kBatchRows` through the branchless filter
/// kernels, feeding either a fused grouped aggregation sweep or a row-id
/// list. Joins consume whole child relations (flat tuples of base-table
/// row ids, as `RowSet`): hash join builds a `JoinDirectory` over typed
/// key gathers and probes chunk-wise through its bit filter into match
/// pairs; nested-loop join runs one equality search (or one key-directory
/// walk for a scanned inner) per distinct consecutive outer key, filters
/// a run of rebinds' candidates at once and adds the inner nodes'
/// per-rebind statistics in bulk; merge join, rare in enumerated plans,
/// runs the row engine's merge over batch-built inputs. Filters,
/// aggregates, sorts and tops above joins read their columns through
/// slot-aware gathers. Per-operator scratch comes from a thread-local
/// ExecArena that is reset once per plan, before any operator runs.
///
/// Determinism contract: the engine produces results, per-node
/// `actual_rows` / `actual_executions` / `actual_access_rows`, group
/// orders, and aggregate values bit-identical to the row engine, which
/// stays as the oracle behind `ExecMode::kRow`. Rows flow in the row
/// engine's order (hash join probe-major with each probe's matches newest
/// build tuple first; nested loop in outer order with inner rows in index
/// or table order; merge join block cross products; sorts through the same
/// `SortRows`), filters are order-preserving compactions, and aggregates
/// accumulate sequentially in row order per group with accumulators
/// carried across chunks (never combined partial sums), so
/// `ExecutionCostModel` and the tuner see indistinguishable signals.
class VectorizedExecutor {
 public:
  VectorizedExecutor(const Database* db, IndexManager* indexes)
      : db_(db), indexes_(indexes) {}

  /// True iff the plan is well formed for both engines: every operator
  /// has its arity, every column and predicate it reads lives on a table
  /// of its input, and every nested-loop inner is
  /// `[Filter ->] [KeyLookup ->] IndexSeek` (on an index led by the join
  /// column) or `[Filter ->] TableScan` over the join's right table. Every
  /// plan the enumerator emits qualifies.
  static bool CanExecute(const PlanNode& root);

  /// Executes a plan (CanExecute must hold), filling actual stats on every
  /// node exactly as the row engine does. Stats must be reset by the
  /// caller (Executor::Execute does).
  ExecResult Execute(PlanNode* root);

 private:
  ExecResult Run(PlanNode* node);
  /// The single-table segment headed by `top`, optionally fused into the
  /// aggregate `agg` directly above it.
  ExecResult RunSegment(PlanNode* top, PlanNode* agg);
  ExecResult RunFilter(PlanNode* node);
  ExecResult RunAggregate(PlanNode* node);
  ExecResult RunHashJoin(PlanNode* node);
  ExecResult RunNestedLoopJoin(PlanNode* node);

  const Database* db_;
  IndexManager* indexes_;
};

}  // namespace aimai

#endif  // AIMAI_EXEC_VECTORIZED_EXECUTOR_H_
