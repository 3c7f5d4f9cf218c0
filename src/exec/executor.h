#ifndef AIMAI_EXEC_EXECUTOR_H_
#define AIMAI_EXEC_EXECUTOR_H_

#include "catalog/database.h"
#include "exec/operators.h"
#include "exec/plan.h"
#include "index/index_manager.h"

namespace aimai {

/// Builds a B+-tree KeyRange from `node`'s seek predicates: an equality
/// prefix over the index key columns, optionally followed by one range
/// column. Shared by the row and vectorized engines so seeks qualify the
/// identical row set on both paths.
KeyRange BuildSeekRange(const Database& db, const PlanNode& node);

/// Executes physical plans against the in-memory database, producing exact
/// results and annotating every plan node with its true output cardinality
/// and execution count. Execution is the ground truth the ML pipeline
/// learns from; the simulated CPU time is derived afterwards by
/// `ExecutionCostModel` from the actual cardinalities.
///
/// Two engines sit behind `Execute`, one per mode: the columnar
/// VectorizedExecutor (kBatch) and the row-at-a-time interpreter below
/// (kRow), which stays as the bit-identity oracle. Both produce
/// bit-identical results and actual statistics on every plan
/// `VectorizedExecutor::CanExecute` accepts; `mode()` selects which one
/// runs (default: kBatch; tests and bench_exec set kRow for the oracle).
class Executor {
 public:
  Executor(const Database* db, IndexManager* indexes)
      : db_(db), indexes_(indexes) {}

  /// Executes the plan; fills `stats.actual_rows` / `actual_executions` on
  /// every node. Returns the root's result (for verification in tests).
  ExecResult Execute(PhysicalPlan* plan);

  ExecMode mode() const { return mode_; }
  void set_mode(ExecMode mode) { mode_ = mode; }

 private:
  ExecResult ExecuteNode(PlanNode* node);

  /// Leaf access operators (scans / seeks).
  RowSet ExecuteAccess(PlanNode* node);

  const Database* db_;
  IndexManager* indexes_;
  ExecMode mode_ = ExecMode::kBatch;
};

}  // namespace aimai

#endif  // AIMAI_EXEC_EXECUTOR_H_
