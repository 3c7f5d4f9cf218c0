// Parity tests for the vectorized batch execution engine: for every plan
// the columnar path can run, its results, per-node actual statistics, and
// derived execution costs must be bit-identical to the row-at-a-time
// interpreter. The tuner's training labels come from these numbers, so
// any divergence silently corrupts the learned comparator.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "exec/execution_cost.h"
#include "exec/executor.h"
#include "exec/vectorized_executor.h"
#include "storage/data_generator.h"
#include "tuner/candidates.h"
#include "workloads/customer.h"
#include "workloads/tpcds_like.h"
#include "workloads/tpch_like.h"
#include "workloads/tpch_sf.h"

namespace aimai {
namespace {

// Snapshot of the executor-written fields of every node, in pre-order.
struct NodeSnapshot {
  PhysOp op;
  double actual_rows;
  double actual_executions;
  double actual_access_rows;
  bool executed;

  bool operator==(const NodeSnapshot& o) const {
    return op == o.op && actual_rows == o.actual_rows &&
           actual_executions == o.actual_executions &&
           actual_access_rows == o.actual_access_rows &&
           executed == o.executed;
  }
};

std::vector<NodeSnapshot> SnapshotStats(const PlanNode& root) {
  std::vector<NodeSnapshot> out;
  root.Visit([&out](const PlanNode& n) {
    out.push_back({n.op, n.stats.actual_rows, n.stats.actual_executions,
                   n.stats.actual_access_rows, n.stats.executed});
  });
  return out;
}

void ExpectSameResult(const ExecResult& row, const ExecResult& vec,
                      const std::string& context) {
  ASSERT_EQ(row.is_agg, vec.is_agg) << context;
  if (row.is_agg) {
    // Exact FP equality, including group order: the vectorized aggregator
    // must register groups in first-seen order and accumulate in row
    // order, like the row path.
    EXPECT_EQ(row.agg.group_keys, vec.agg.group_keys) << context;
    EXPECT_EQ(row.agg.agg_values, vec.agg.agg_values) << context;
  } else {
    EXPECT_EQ(row.rows.tables, vec.rows.tables) << context;
    EXPECT_EQ(row.rows.ids, vec.rows.ids) << context;
  }
}

// Executes `plan` through both engines (fresh clones) and asserts
// identical results, per-node actuals, and ExecutionCostModel totals.
// Returns whether the vectorized engine actually handled the plan (vs.
// falling back to the row interpreter).
bool RunBothAndCompare(const Database& db, IndexManager* indexes,
                       const PhysicalPlan& plan, const std::string& context) {
  auto row_plan = plan.Clone();
  auto vec_plan = plan.Clone();

  Executor row_exec(&db, indexes);
  row_exec.set_mode(ExecMode::kRow);
  Executor vec_exec(&db, indexes);
  vec_exec.set_mode(ExecMode::kBatch);

  const ExecResult rr = row_exec.Execute(row_plan.get());
  const ExecResult vr = vec_exec.Execute(vec_plan.get());
  ExpectSameResult(rr, vr, context);
  EXPECT_EQ(SnapshotStats(*row_plan->root), SnapshotStats(*vec_plan->root))
      << context;

  ExecutionCostModel model(&db);
  const double row_cost = model.ComputeActualCost(row_plan.get());
  const double vec_cost = model.ComputeActualCost(vec_plan.get());
  EXPECT_EQ(row_cost, vec_cost) << context;  // Exact: same stats in, same
                                             // pure function.
  return VectorizedExecutor::CanExecute(*plan.root);
}

// Sweeps every query of a benchmark database under (a) the initial
// configuration and (b) a candidate-enriched configuration, comparing the
// two engines on the optimizer's chosen plans.
void SweepWorkload(BenchmarkDatabase* bdb, size_t max_queries,
                   size_t* vectorized_count) {
  CandidateGenerator candidates(bdb->db(), bdb->stats());
  Rng rng(7);
  size_t nq = std::min(max_queries, bdb->queries().size());
  for (size_t qi = 0; qi < nq; ++qi) {
    const QuerySpec& q = bdb->queries()[qi];
    std::vector<Configuration> configs = {bdb->initial_config()};
    Configuration enriched = bdb->initial_config();
    for (const IndexDef& def : candidates.Generate(q, {})) {
      if (rng.Bernoulli(0.5)) enriched.Add(def);
    }
    configs.push_back(enriched);
    for (size_t ci = 0; ci < configs.size(); ++ci) {
      const auto plan = bdb->what_if()->Optimize(q, configs[ci]);
      const std::string context =
          q.name + " config#" + std::to_string(ci);
      if (RunBothAndCompare(*bdb->db(), bdb->indexes(), *plan, context) &&
          vectorized_count != nullptr) {
        ++*vectorized_count;
      }
    }
  }
}

TEST(ExecBatchTest, TpchWorkloadParity) {
  auto bdb = BuildTpchLike("vb_tpch", 1, 0.9, 11);
  size_t vectorized = 0;
  SweepWorkload(bdb.get(), 12, &vectorized);
  // The single-table pipeline must actually engage somewhere; otherwise
  // this test silently degenerates to row-vs-row.
  EXPECT_GT(vectorized, 0u);
}

TEST(ExecBatchTest, TpcdsWorkloadParity) {
  auto bdb = BuildTpcdsLike("vb_tpcds", 1, 0.9, /*with_columnstore=*/true, 12);
  size_t vectorized = 0;
  SweepWorkload(bdb.get(), bdb->queries().size(), &vectorized);
  EXPECT_GT(vectorized, 0u);
}

TEST(ExecBatchTest, CustomerWorkloadParity) {
  CustomerProfile prof;
  prof.num_tables = 4;
  prof.min_rows = 100;
  prof.max_rows = 800;
  prof.num_queries = 10;
  prof.max_joins = 2;
  prof.zipf_s = 0.8;
  auto bdb = BuildCustomer("vb_cust", prof, 13);
  size_t vectorized = 0;
  SweepWorkload(bdb.get(), 10, &vectorized);
  EXPECT_GT(vectorized, 0u);
}

TEST(ExecBatchTest, TpchSfWorkloadParity) {
  TpchSfOptions opt;
  opt.sf = 0.01;
  opt.seed = 14;
  opt.instances_per_family = 2;
  auto bdb = BuildTpchSf("vb_sf", opt);
  size_t vectorized = 0;
  SweepWorkload(bdb.get(), 10, &vectorized);
  EXPECT_GT(vectorized, 0u);
}

// ------------------------------------------------- hand-built edge cases

// Small mixed-type table: int key, double measure, dictionary string.
std::unique_ptr<Database> MakeEdgeDb() {
  auto db = std::make_unique<Database>("edge");
  DataGenerator gen(Rng{21});
  auto t = std::make_unique<Table>("t");
  gen.FillSequentialInt(t->AddColumn("a", DataType::kInt64), 500);
  gen.FillUniformDouble(t->AddColumn("b", DataType::kDouble), 500, -10, 10);
  gen.FillDictString(t->AddColumn("s", DataType::kString), 500, 12, 0.7, "w");
  t->SealRows();
  db->AddTable(std::move(t));
  return db;
}

PhysicalPlan MakeScanFilterPlan(std::vector<Predicate> preds) {
  PhysicalPlan plan;
  plan.root = std::make_unique<PlanNode>();
  plan.root->op = PhysOp::kTableScan;
  plan.root->table_id = 0;
  plan.root->residual_preds = std::move(preds);
  return plan;
}

Predicate MakePred(int col, CmpOp op, Value lo, Value hi = Value()) {
  Predicate p;
  p.table_id = 0;
  p.column_id = col;
  p.op = op;
  p.lo = lo;
  p.hi = hi;
  return p;
}

TEST(ExecBatchTest, EmptyResultFilter) {
  auto dbp = MakeEdgeDb();
  Database& db = *dbp;
  IndexManager indexes(&db);
  const auto plan = MakeScanFilterPlan({MakePred(0, CmpOp::kGt,
                                                 Value::Int(100000))});
  ASSERT_TRUE(VectorizedExecutor::CanExecute(*plan.root));
  EXPECT_TRUE(RunBothAndCompare(db, &indexes, plan, "empty-result"));

  auto vec_plan = plan.Clone();
  Executor exec(&db, &indexes);
  exec.set_mode(ExecMode::kBatch);
  const ExecResult r = exec.Execute(vec_plan.get());
  EXPECT_EQ(r.rows.size(), 0u);
  EXPECT_EQ(vec_plan->root->stats.actual_rows, 0.0);
  EXPECT_EQ(vec_plan->root->stats.actual_access_rows, 500.0);
}

TEST(ExecBatchTest, AllPassFilter) {
  auto dbp = MakeEdgeDb();
  Database& db = *dbp;
  IndexManager indexes(&db);
  const auto plan = MakeScanFilterPlan({MakePred(0, CmpOp::kGe,
                                                 Value::Int(0))});
  ASSERT_TRUE(VectorizedExecutor::CanExecute(*plan.root));
  EXPECT_TRUE(RunBothAndCompare(db, &indexes, plan, "all-pass"));

  auto vec_plan = plan.Clone();
  Executor exec(&db, &indexes);
  exec.set_mode(ExecMode::kBatch);
  const ExecResult r = exec.Execute(vec_plan.get());
  EXPECT_EQ(r.rows.size(), 500u);
  EXPECT_EQ(vec_plan->root->stats.actual_rows, 500.0);
}

TEST(ExecBatchTest, DictionaryColumnFilter) {
  auto dbp = MakeEdgeDb();
  Database& db = *dbp;
  IndexManager indexes(&db);
  const Column& s = db.table(0).column(2);
  ASSERT_FALSE(s.dictionary().empty());
  // Equality on a dictionary word plus a range over codes (string
  // comparisons resolve to dictionary-code bounds).
  const std::string word = s.dictionary()[s.dictionary().size() / 2];
  {
    const auto plan =
        MakeScanFilterPlan({MakePred(2, CmpOp::kEq, Value::Str(word))});
    ASSERT_TRUE(VectorizedExecutor::CanExecute(*plan.root));
    RunBothAndCompare(db, &indexes, plan, "dict-eq");
  }
  {
    const auto plan =
        MakeScanFilterPlan({MakePred(2, CmpOp::kLe, Value::Str(word)),
                            MakePred(0, CmpOp::kLt, Value::Int(400))});
    ASSERT_TRUE(VectorizedExecutor::CanExecute(*plan.root));
    RunBothAndCompare(db, &indexes, plan, "dict-range-plus-int");
  }
}

TEST(ExecBatchTest, GroupedAggregateOverDictionaryColumn) {
  auto dbp = MakeEdgeDb();
  Database& db = *dbp;
  IndexManager indexes(&db);
  PhysicalPlan plan;
  auto scan = std::make_unique<PlanNode>();
  scan->op = PhysOp::kTableScan;
  scan->table_id = 0;
  scan->residual_preds = {MakePred(0, CmpOp::kLt, Value::Int(300))};
  auto agg = std::make_unique<PlanNode>();
  agg->op = PhysOp::kHashAggregate;
  agg->table_id = 0;
  agg->group_by = {ColumnRef{0, 2}};
  agg->aggregates = {{AggFunc::kCount, {}},
                     {AggFunc::kSum, ColumnRef{0, 1}},
                     {AggFunc::kAvg, ColumnRef{0, 1}},
                     {AggFunc::kMin, ColumnRef{0, 1}},
                     {AggFunc::kMax, ColumnRef{0, 1}}};
  agg->children.push_back(std::move(scan));
  plan.root = std::move(agg);
  ASSERT_TRUE(VectorizedExecutor::CanExecute(*plan.root));
  RunBothAndCompare(db, &indexes, plan, "dict-group-agg");

  // Sanity: COUNTs sum to the filtered row count.
  auto vec_plan = plan.Clone();
  Executor exec(&db, &indexes);
  exec.set_mode(ExecMode::kBatch);
  const ExecResult r = exec.Execute(vec_plan.get());
  ASSERT_TRUE(r.is_agg);
  double total = 0;
  for (const auto& v : r.agg.agg_values) total += v[0];
  EXPECT_EQ(total, 300.0);
}

// Integer group keys straddling the vectorized aggregator's direct-table
// range: negatives and keys past it take the hash map, the rest the table,
// and groups must still register in first-seen order.
TEST(ExecBatchTest, GroupedAggregateOverIntKeysAcrossDirectRange) {
  Database db("int_keys");
  DataGenerator gen(Rng{22});
  auto t = std::make_unique<Table>("t");
  Column* k = t->AddColumn("k", DataType::kInt64);
  gen.FillUniformDouble(t->AddColumn("v", DataType::kDouble), 3000, -5, 5);
  Rng rng(23);
  const int64_t keys[] = {-70000, -1, 0, 3, 65535, 65536, 1 << 20};
  for (int r = 0; r < 3000; ++r) k->AppendInt(keys[rng.Index(7)]);
  t->SealRows();
  db.AddTable(std::move(t));
  IndexManager indexes(&db);

  PhysicalPlan plan;
  auto scan = std::make_unique<PlanNode>();
  scan->op = PhysOp::kTableScan;
  scan->table_id = 0;
  auto agg = std::make_unique<PlanNode>();
  agg->op = PhysOp::kHashAggregate;
  agg->table_id = 0;
  agg->group_by = {ColumnRef{0, 0}};
  agg->aggregates = {{AggFunc::kCount, {}},
                     {AggFunc::kSum, ColumnRef{0, 1}},
                     {AggFunc::kAvg, ColumnRef{0, 1}},
                     {AggFunc::kMin, ColumnRef{0, 1}},
                     {AggFunc::kMax, ColumnRef{0, 1}}};
  agg->children.push_back(std::move(scan));
  plan.root = std::move(agg);
  ASSERT_TRUE(VectorizedExecutor::CanExecute(*plan.root));
  EXPECT_TRUE(RunBothAndCompare(db, &indexes, plan, "int-group-agg"));
}

TEST(ExecBatchTest, JoinPlansFallBackToRowEngine) {
  // Two-table join: the vectorized engine must decline, and the batch-mode
  // Executor must still produce the row engine's exact result.
  auto bdb = BuildTpchLike("vb_join", 1, 0.9, 31);
  bool saw_join = false;
  for (const QuerySpec& q : bdb->queries()) {
    if (q.joins.empty()) continue;
    saw_join = true;
    const auto plan = bdb->what_if()->Optimize(q, bdb->initial_config());
    EXPECT_FALSE(VectorizedExecutor::CanExecute(*plan->root)) << q.name;
    RunBothAndCompare(*bdb->db(), bdb->indexes(), *plan, q.name);
    break;
  }
  EXPECT_TRUE(saw_join);
}

}  // namespace
}  // namespace aimai
