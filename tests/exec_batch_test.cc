// Parity tests for the vectorized batch execution engine: for every plan
// it runs (every plan the enumerator emits, joins included), its results,
// per-node actual statistics, and derived execution costs must be
// bit-identical to the row-at-a-time interpreter. The tuner's training
// labels come from these numbers, so any divergence silently corrupts the
// learned comparator.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "exec/execution_cost.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "exec/vectorized_executor.h"
#include "models/repository_io.h"
#include "storage/data_generator.h"
#include "tuner/candidates.h"
#include "workloads/collection.h"
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

// Bit patterns of aggregate rows, so NaN keys compare equal to themselves
// and -0.0 differs from +0.0.
std::vector<std::vector<uint64_t>> Bits(
    const std::vector<std::vector<double>>& rows) {
  std::vector<std::vector<uint64_t>> out;
  for (const std::vector<double>& row : rows) {
    std::vector<uint64_t>& bits = out.emplace_back();
    for (double d : row) bits.push_back(std::bit_cast<uint64_t>(d));
  }
  return out;
}

void ExpectSameResult(const ExecResult& row, const ExecResult& vec,
                      const std::string& context) {
  ASSERT_EQ(row.is_agg, vec.is_agg) << context;
  if (row.is_agg) {
    // Exact bit equality, including group order: the vectorized aggregator
    // must register groups in first-seen order and accumulate in row
    // order, like the row path.
    EXPECT_EQ(Bits(row.agg.group_keys), Bits(vec.agg.group_keys)) << context;
    EXPECT_EQ(Bits(row.agg.agg_values), Bits(vec.agg.agg_values)) << context;
  } else {
    EXPECT_EQ(row.rows.tables, vec.rows.tables) << context;
    EXPECT_EQ(row.rows.ids, vec.rows.ids) << context;
  }
}

// Executes `plan` through both engines (fresh clones) and asserts
// identical results, per-node actuals, and ExecutionCostModel totals.
// Returns whether the plan is one the vectorized engine promises to
// reproduce (CanExecute).
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

bool HasJoin(const PlanNode& root) {
  bool join = false;
  root.Visit([&join](const PlanNode& n) {
    join |= n.op == PhysOp::kHashJoin || n.op == PhysOp::kMergeJoin ||
            n.op == PhysOp::kNestedLoopJoin;
  });
  return join;
}

// Sweeps every query of a benchmark database under (a) the initial
// configuration and (b) a candidate-enriched configuration, comparing the
// two engines on the optimizer's chosen plans. Every plan must be one the
// batch engine runs: it has no row fallback. Returns how many plans join.
size_t SweepWorkload(BenchmarkDatabase* bdb, size_t max_queries) {
  size_t join_plans = 0;
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
      EXPECT_TRUE(
          RunBothAndCompare(*bdb->db(), bdb->indexes(), *plan, context))
          << context;
      join_plans += HasJoin(*plan->root) ? 1 : 0;
    }
  }
  return join_plans;
}

// Each sweep must include join plans; otherwise it would not cover the
// join kernels.
TEST(ExecBatchTest, TpchWorkloadParity) {
  auto bdb = BuildTpchLike("vb_tpch", 1, 0.9, 11);
  EXPECT_GT(SweepWorkload(bdb.get(), 12), 0u);
}

TEST(ExecBatchTest, TpcdsWorkloadParity) {
  auto bdb = BuildTpcdsLike("vb_tpcds", 1, 0.9, /*with_columnstore=*/true, 12);
  EXPECT_GT(SweepWorkload(bdb.get(), bdb->queries().size()), 0u);
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
  EXPECT_GT(SweepWorkload(bdb.get(), 10), 0u);
}

TEST(ExecBatchTest, TpchSfWorkloadParity) {
  TpchSfOptions opt;
  opt.sf = 0.01;
  opt.seed = 14;
  opt.instances_per_family = 2;
  auto bdb = BuildTpchSf("vb_sf", opt);
  EXPECT_GT(SweepWorkload(bdb.get(), 10), 0u);
}

// The whole §7.3 collection loop as the oracle: what-if, index builds,
// execution and costing over every tpch_sf query under several
// configurations must save byte-identical repositories whichever engine
// executes. Training labels are exactly these bytes.
TEST(ExecBatchTest, CollectionRepositoryBytesMatchRowEngine) {
  auto collect = [](ExecMode mode, size_t* join_plans) {
    TpchSfOptions opt;
    opt.sf = 0.005;
    opt.seed = 15;
    auto bdb = BuildTpchSf("vb_collect", opt);
    bdb->executor()->set_mode(mode);
    ExecutionDataRepository repo;
    CollectionOptions copts;
    copts.configs_per_query = 4;
    copts.seed = 16;
    CollectExecutionData(bdb.get(), 0, copts, &repo);
    *join_plans = 0;
    for (size_t i = 0; i < repo.num_plans(); ++i) {
      *join_plans += HasJoin(*repo.plan(static_cast<int>(i)).plan->root);
    }
    std::ostringstream out;
    EXPECT_TRUE(SaveRepository(&out, repo).ok());
    return out.str();
  };
  size_t row_joins = 0;
  size_t batch_joins = 0;
  const std::string row = collect(ExecMode::kRow, &row_joins);
  const std::string batch = collect(ExecMode::kBatch, &batch_joins);
  EXPECT_GT(row_joins, 0u);
  EXPECT_EQ(row_joins, batch_joins);
  ASSERT_FALSE(row.empty());
  EXPECT_EQ(row.size(), batch.size());
  EXPECT_TRUE(row == batch) << "repository bytes differ between engines";
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

// ------------------------------------------------------ hand-built joins

// Three tables with a double join key `k` drawn from a small domain holding
// both signed zeros (and NaN when `with_nan`), so joins see long tie runs;
// an int `g`, a double measure `v` and a dictionary string `s`. Table 0 is
// wider than one batch chunk, so build, probe and outer loops cross chunk
// boundaries and join outputs flush several pair buffers.
constexpr int kK = 0, kG = 1, kV = 2, kS = 3;

std::unique_ptr<Database> MakeJoinDb(uint64_t seed, bool with_nan) {
  auto db = std::make_unique<Database>("joins");
  Rng rng(seed);
  DataGenerator gen(Rng{seed + 1});
  const size_t rows[] = {5000, 60, 40};
  for (int t = 0; t < 3; ++t) {
    auto table = std::make_unique<Table>(StrFormat("t%d", t));
    Column* k = table->AddColumn("k", DataType::kDouble);
    Column* g = table->AddColumn("g", DataType::kInt64);
    for (size_t r = 0; r < rows[t]; ++r) {
      const double choices[] = {-0.0, 0.0, 1.0, 2.0, -3.0, 4.5};
      k->AppendDouble(with_nan && rng.Bernoulli(0.05)
                          ? std::numeric_limits<double>::quiet_NaN()
                          : choices[rng.Index(6)]);
      g->AppendInt(static_cast<int64_t>(rng.Index(5)));
    }
    gen.FillUniformDouble(table->AddColumn("v", DataType::kDouble), rows[t],
                          -10, 10);
    gen.FillDictString(table->AddColumn("s", DataType::kString), rows[t], 8,
                       0.5, "w");
    table->SealRows();
    db->AddTable(std::move(table));
  }
  return db;
}

Predicate PredOn(int table, int col, CmpOp op, Value lo, Value hi = Value()) {
  Predicate p = MakePred(col, op, std::move(lo), std::move(hi));
  p.table_id = table;
  return p;
}

std::unique_ptr<PlanNode> Node(PhysOp op, int table = -1) {
  auto n = std::make_unique<PlanNode>();
  n->op = op;
  n->table_id = table;
  return n;
}

std::unique_ptr<PlanNode> Scan(int table, std::vector<Predicate> preds = {}) {
  auto n = Node(PhysOp::kTableScan, table);
  n->residual_preds = std::move(preds);
  return n;
}

IndexDef IndexOn(int table, std::vector<int> key) {
  IndexDef d;
  d.table_id = table;
  d.key_columns = std::move(key);
  return d;
}

// A nested-loop inner seek: no seek predicates (the outer key binds it).
std::unique_ptr<PlanNode> InnerSeek(const IndexDef& idx,
                                    std::vector<Predicate> residual = {}) {
  auto n = Node(PhysOp::kIndexSeek, idx.table_id);
  n->index = idx;
  n->residual_preds = std::move(residual);
  return n;
}

std::unique_ptr<PlanNode> Above(PhysOp op, std::unique_ptr<PlanNode> child) {
  auto n = Node(op, child->table_id);
  n->children.push_back(std::move(child));
  return n;
}

std::unique_ptr<PlanNode> FilterAbove(std::unique_ptr<PlanNode> child,
                                      std::vector<Predicate> preds) {
  auto n = Above(PhysOp::kFilter, std::move(child));
  n->residual_preds = std::move(preds);
  return n;
}

std::unique_ptr<PlanNode> Join(PhysOp op, ColumnRef left, ColumnRef right,
                               std::unique_ptr<PlanNode> a,
                               std::unique_ptr<PlanNode> b) {
  auto n = Node(op);
  n->join = {left, right};
  n->children.push_back(std::move(a));
  n->children.push_back(std::move(b));
  return n;
}

std::unique_ptr<PlanNode> Aggregate(PhysOp op, std::unique_ptr<PlanNode> child,
                                    std::vector<ColumnRef> group_by,
                                    ColumnRef measure) {
  auto n = Above(op, std::move(child));
  n->group_by = std::move(group_by);
  n->aggregates = {{AggFunc::kCount, {}},
                   {AggFunc::kSum, measure},
                   {AggFunc::kAvg, measure},
                   {AggFunc::kMin, measure},
                   {AggFunc::kMax, measure}};
  return n;
}

PhysicalPlan PlanOf(std::unique_ptr<PlanNode> root) {
  PhysicalPlan plan;
  plan.root = std::move(root);
  return plan;
}

// Runs a hand-built plan through both engines; the plan must be one the
// batch engine accepts, and (when `nonempty`) produce rows, so parity is
// not vacuous.
void ExpectParity(const Database& db, const PhysicalPlan& plan,
                  const std::string& context, bool nonempty = true) {
  IndexManager indexes(&db);
  EXPECT_TRUE(RunBothAndCompare(db, &indexes, plan, context)) << context;
  if (!nonempty) return;
  auto owned = plan.Clone();
  Executor exec(&db, &indexes);
  exec.set_mode(ExecMode::kBatch);
  EXPECT_GT(exec.Execute(owned.get()).size(), 0u) << context;
}

const ColumnRef K0{0, kK}, K1{1, kK}, K2{2, kK};
const ColumnRef G0{0, kG}, G1{1, kG}, G2{2, kG};
const ColumnRef V0{0, kV}, V1{1, kV};

TEST(ExecBatchJoinTest, HashJoinBothBuildSides) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto db = MakeJoinDb(seed, /*with_nan=*/seed % 2 == 1);
    const std::string tag = " seed " + std::to_string(seed);
    // Small build, chunked probe; then chunked build, small probe.
    ExpectParity(*db, PlanOf(Join(PhysOp::kHashJoin, K1, K0, Scan(1),
                                  Scan(0))),
                 "hj build=t1" + tag);
    ExpectParity(*db, PlanOf(Join(PhysOp::kHashJoin, K0, K1, Scan(0),
                                  Scan(1))),
                 "hj build=t0" + tag);
    // Integer and dictionary keys, filtered inputs.
    ExpectParity(
        *db,
        PlanOf(Join(PhysOp::kHashJoin, G1, G0,
                    Scan(1, {PredOn(1, kV, CmpOp::kLt, Value::Real(0))}),
                    Scan(0, {PredOn(0, kG, CmpOp::kLe, Value::Int(1))}))),
        "hj int keys" + tag);
    ExpectParity(*db,
                 PlanOf(Join(PhysOp::kHashJoin, ColumnRef{2, kS},
                             ColumnRef{1, kS}, Scan(2), Scan(1))),
                 "hj dict keys" + tag);
    // Three-way: a multi-table build side and a multi-table probe side.
    ExpectParity(*db,
                 PlanOf(Join(PhysOp::kHashJoin, K2, K0,
                             Join(PhysOp::kHashJoin, G1, G2, Scan(1), Scan(2)),
                             Scan(0, {PredOn(0, kG, CmpOp::kLt,
                                             Value::Int(2))}))),
                 "hj 3-way build" + tag);
    ExpectParity(*db,
                 PlanOf(Join(PhysOp::kHashJoin, G2, G1, Scan(2),
                             Join(PhysOp::kHashJoin, K1, K0, Scan(1),
                                  Scan(0)))),
                 "hj 3-way probe" + tag);
  }
}

TEST(ExecBatchJoinTest, MergeJoinBlocksAndNan) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::string tag = " seed " + std::to_string(seed);
    // Sorted inputs (NaN-free: sorting NaN is outside std::sort's
    // contract), the enumerator's shape.
    const auto db = MakeJoinDb(seed, /*with_nan=*/false);
    auto sorted = [](std::unique_ptr<PlanNode> child, ColumnRef key) {
      auto n = Above(PhysOp::kSort, std::move(child));
      n->sort_keys = {SortKey{key, true}};
      return n;
    };
    ExpectParity(*db,
                 PlanOf(Join(PhysOp::kMergeJoin, K0, K1, sorted(Scan(0), K0),
                             sorted(Scan(1), K1))),
                 "mj sorted" + tag);
    ExpectParity(
        *db,
        PlanOf(Join(PhysOp::kMergeJoin, K2, K0,
                    sorted(Join(PhysOp::kHashJoin, G1, G2, Scan(1), Scan(2)),
                           K2),
                    sorted(Scan(0, {PredOn(0, kG, CmpOp::kEq, Value::Int(3))}),
                           K0))),
        "mj multi-table" + tag);
    // Unsorted inputs with NaN keys: the merge still runs the same steps
    // (NaN skipped on either side) in both engines.
    const auto nan_db = MakeJoinDb(seed, /*with_nan=*/true);
    ExpectParity(*nan_db,
                 PlanOf(Join(PhysOp::kMergeJoin, K1, K2, Scan(1), Scan(2))),
                 "mj nan" + tag, /*nonempty=*/false);
  }
}

TEST(ExecBatchJoinTest, NestedLoopInnerShapes) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto db = MakeJoinDb(seed, /*with_nan=*/seed % 2 == 1);
    const std::string tag = " seed " + std::to_string(seed);
    const IndexDef by_k = IndexOn(1, {kK});
    const IndexDef by_g = IndexOn(1, {kG, kV});
    const std::vector<Predicate> on_v = {
        PredOn(1, kV, CmpOp::kGt, Value::Real(-5))};
    const std::vector<Predicate> on_s = {
        PredOn(1, kS, CmpOp::kLe, Value::Str("w00004"))};

    std::vector<std::pair<std::string, std::unique_ptr<PlanNode>>> inners;
    inners.emplace_back("seek", InnerSeek(by_k));
    inners.emplace_back("seek+residual", InnerSeek(by_k, on_v));
    inners.emplace_back("lookup", Above(PhysOp::kKeyLookup, InnerSeek(by_k)));
    inners.emplace_back(
        "filter-lookup",
        FilterAbove(Above(PhysOp::kKeyLookup, InnerSeek(by_k, on_v)), on_s));
    inners.emplace_back("scan", Scan(1));
    inners.emplace_back("filter-scan", FilterAbove(Scan(1, on_v), on_s));
    for (auto& [name, inner] : inners) {
      ExpectParity(*db,
                   PlanOf(Join(PhysOp::kNestedLoopJoin, K0, K1, Scan(0),
                               inner->Clone())),
                   "nlj " + name + tag);
    }
    // Composite inner index on the int key; a multi-table outer.
    ExpectParity(*db,
                 PlanOf(Join(PhysOp::kNestedLoopJoin, G0, G1,
                             Scan(0, {PredOn(0, kK, CmpOp::kGe,
                                             Value::Real(1))}),
                             InnerSeek(by_g, on_v))),
                 "nlj composite" + tag);
    ExpectParity(*db,
                 PlanOf(Join(PhysOp::kNestedLoopJoin, K2, K1,
                             Join(PhysOp::kHashJoin, G2, G0, Scan(2),
                                  Scan(0, {PredOn(0, kG, CmpOp::kEq,
                                                  Value::Int(0))})),
                             Above(PhysOp::kKeyLookup, InnerSeek(by_k)))),
                 "nlj multi-table outer" + tag);
  }
}

TEST(ExecBatchJoinTest, MultiTableFilterAggregateSortTop) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const auto db = MakeJoinDb(seed, /*with_nan=*/seed % 2 == 1);
    const std::string tag = " seed " + std::to_string(seed);
    auto joined = [] {
      return Join(PhysOp::kHashJoin, K1, K0, Scan(1), Scan(0));
    };
    // A filter on the build table's columns, above the join.
    ExpectParity(*db,
                 PlanOf(FilterAbove(joined(),
                                    {PredOn(1, kV, CmpOp::kBetween,
                                            Value::Real(-6), Value::Real(6)),
                                     PredOn(1, kG, CmpOp::kGe,
                                            Value::Int(1))})),
                 "filter" + tag);
    // Groups across both tables; a double group key with ±0.0 and NaN;
    // a direct-table int key; a scalar aggregate.
    ExpectParity(*db,
                 PlanOf(Aggregate(PhysOp::kHashAggregate, joined(), {G0, G1},
                                  V1)),
                 "agg 2-table key" + tag);
    // Joined on g, so the double k keys keep their NaN rows.
    ExpectParity(*db,
                 PlanOf(Aggregate(PhysOp::kHashAggregate,
                                  Join(PhysOp::kHashJoin, G1, G0, Scan(1),
                                       Scan(0)),
                                  {K0, K1}, V0)),
                 "agg double key" + tag);
    ExpectParity(*db,
                 PlanOf(Aggregate(PhysOp::kHashAggregate, joined(),
                                  {ColumnRef{0, kS}}, V1)),
                 "agg dict key" + tag);
    ExpectParity(*db,
                 PlanOf(Aggregate(PhysOp::kStreamAggregate, joined(), {}, V0)),
                 "agg scalar" + tag);
    // Q3's shape: group the join, sort the groups, keep the top ten; and
    // a sort of joined rows under a top.
    auto q3 = Aggregate(PhysOp::kHashAggregate, joined(), {G1, G0}, V0);
    auto sort = Above(PhysOp::kSort, std::move(q3));
    sort->sort_keys = {SortKey{G1, false}};
    auto top = Above(PhysOp::kTop, std::move(sort));
    top->top_n = 10;
    ExpectParity(*db, PlanOf(std::move(top)), "q3 shape" + tag);
    auto row_sort = Above(PhysOp::kSort, joined());
    row_sort->sort_keys = {SortKey{G1, false}, SortKey{V0, true}};
    auto row_top = Above(PhysOp::kTop, std::move(row_sort));
    row_top->top_n = 100;
    ExpectParity(*db, PlanOf(std::move(row_top)), "sort top" + tag);
    // Sort then stream aggregate over an NLJ.
    auto nlj = Join(PhysOp::kNestedLoopJoin, K0, K1, Scan(0),
                    InnerSeek(IndexOn(1, {kK})));
    auto by_g = Above(PhysOp::kSort, std::move(nlj));
    by_g->sort_keys = {SortKey{G0, true}};
    ExpectParity(*db,
                 PlanOf(Aggregate(PhysOp::kStreamAggregate, std::move(by_g),
                                  {G0}, V1)),
                 "stream agg over nlj" + tag);
  }
}

TEST(ExecBatchJoinTest, EmptyOuterNeverBuildsInnerIndex) {
  const auto db = MakeJoinDb(7, /*with_nan=*/true);
  const auto plan = PlanOf(Join(
      PhysOp::kNestedLoopJoin, K0, K1,
      Scan(0, {PredOn(0, kG, CmpOp::kGt, Value::Int(100))}),
      FilterAbove(Above(PhysOp::kKeyLookup, InnerSeek(IndexOn(1, {kK}))),
                  {PredOn(1, kV, CmpOp::kLt, Value::Real(0))})));
  ExpectParity(*db, plan, "empty outer", /*nonempty=*/false);

  IndexManager indexes(db.get());
  auto owned = plan.Clone();
  Executor exec(db.get(), &indexes);
  exec.set_mode(ExecMode::kBatch);
  EXPECT_EQ(exec.Execute(owned.get()).size(), 0u);
  EXPECT_EQ(indexes.num_built(), 0u);
  EXPECT_TRUE(owned->root->stats.executed);
  owned->root->child(1)->Visit(
      [](const PlanNode& n) { EXPECT_FALSE(n.stats.executed); });
}

// ------------------------------------------------- filter kernel oracle

// The flag-and-mask form the closed-form BoundsSpec replaced, kept as the
// oracle: four compares per row, NumericBounds::Contains' semantics, NaN
// passing every bound.
bool OraclePass(const NumericBounds& b, double x) {
  const uint32_t fail_lo =
      static_cast<uint32_t>(b.has_lo) &
      (static_cast<uint32_t>(x < b.lo) |
       (static_cast<uint32_t>(b.lo_open) & static_cast<uint32_t>(x == b.lo)));
  const uint32_t fail_hi =
      static_cast<uint32_t>(b.has_hi) &
      (static_cast<uint32_t>(x > b.hi) |
       (static_cast<uint32_t>(b.hi_open) & static_cast<uint32_t>(x == b.hi)));
  return (fail_lo | fail_hi) == 0;
}

/// Every bound shape: each end absent, closed or open, at every value.
std::vector<NumericBounds> AllBounds(const std::vector<double>& values) {
  std::vector<NumericBounds> out;
  for (int lo_kind = 0; lo_kind < 3; ++lo_kind) {
    for (int hi_kind = 0; hi_kind < 3; ++hi_kind) {
      for (size_t i = 0; i < (lo_kind > 0 ? values.size() : 1); ++i) {
        for (size_t j = 0; j < (hi_kind > 0 ? values.size() : 1); ++j) {
          NumericBounds b;
          b.has_lo = lo_kind > 0;
          b.lo_open = lo_kind == 2;
          b.lo = b.has_lo ? values[i] : 0;
          b.has_hi = hi_kind > 0;
          b.hi_open = hi_kind == 2;
          b.hi = b.has_hi ? values[j] : 0;
          out.push_back(b);
        }
      }
    }
  }
  return out;
}

std::string BoundsName(const NumericBounds& b) {
  return StrFormat("%s%.17g, %.17g%s", !b.has_lo ? "(-" : b.lo_open ? "(" : "[",
                   b.lo, b.hi, !b.has_hi ? "+)" : b.hi_open ? ")" : "]");
}

/// FilterDense, FilterGather and FilterPositions over `data` (viewed as
/// `view`) against the oracle, for every bound shape over `bound_values`.
template <typename T>
void ExpectFilterKernelsMatchOracle(const ColumnView& view,
                                    const std::vector<T>& data,
                                    const std::vector<double>& bound_values) {
  const size_t n = data.size();
  // A selection that visits the rows out of order: odd rows, then even.
  std::vector<uint32_t> ids;
  for (size_t start : {size_t{1}, size_t{0}}) {
    for (size_t r = start; r < n; r += 2) ids.push_back(static_cast<uint32_t>(r));
  }
  std::vector<uint32_t> pos(n);
  for (size_t i = 0; i < n; ++i) pos[i] = static_cast<uint32_t>(n - 1 - i);
  std::vector<uint32_t> out(n);
  for (const NumericBounds& b : AllBounds(bound_values)) {
    const BoundsSpec spec = BoundsSpec::From(b);
    auto passes = [&](uint32_t r) {
      return OraclePass(b, static_cast<double>(data[r]));
    };
    std::vector<uint32_t> want;
    for (uint32_t r = 0; r < n; ++r) {
      if (passes(r)) want.push_back(r);
    }
    size_t k = FilterDense(view, 0, static_cast<uint32_t>(n), spec, out.data());
    EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + k), want)
        << "dense " << BoundsName(b);

    want.clear();
    for (uint32_t r : ids) {
      if (passes(r)) want.push_back(r);
    }
    k = FilterGather(view, ids.data(), n, spec, out.data());
    EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + k), want)
        << "gather " << BoundsName(b);

    want.clear();
    for (uint32_t p : pos) {
      if (passes(ids[p])) want.push_back(p);
    }
    k = FilterPositions(view, ids.data(), pos.data(), n, spec, out.data());
    EXPECT_EQ(std::vector<uint32_t>(out.begin(), out.begin() + k), want)
        << "positions " << BoundsName(b);
  }
}

TEST(FilterKernelOracleTest, ClosedFormBoundsMatchFlagForm) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kMax = std::numeric_limits<double>::max();
  constexpr double kTiny = std::numeric_limits<double>::denorm_min();
  const std::vector<double> bounds = {
      kNan, -kInf, kInf, -0.0, 0.0, -kMax, kMax, -kTiny, kTiny,
      -1.5, -1, 0.5,  1,   2,    2.5, 3,     9.2233720368547758e18};

  const std::vector<double> doubles = {
      kNan, -kNan, -kInf, kInf, -0.0, 0.0, -kMax, kMax, -kTiny, kTiny,
      -1.5, -1, 0.5, std::nextafter(0.5, 0.0), std::nextafter(0.5, 1.0),
      1, 2, std::nextafter(2.0, kInf), 2.5, 3};
  ColumnView dv;
  dv.type = DataType::kDouble;
  dv.f64 = doubles.data();
  ExpectFilterKernelsMatchOracle(dv, doubles, bounds);

  constexpr int64_t k53 = int64_t{1} << 53;
  const std::vector<int64_t> ints = {
      std::numeric_limits<int64_t>::min(), -k53 - 1, -3, -2, -1, 0, 1, 2, 3,
      k53 + 1, std::numeric_limits<int64_t>::max()};
  ColumnView iv;
  iv.type = DataType::kInt64;
  iv.i64 = ints.data();
  ExpectFilterKernelsMatchOracle(iv, ints, bounds);

  const std::vector<int32_t> codes = {0, 1, 2, 3, 4, 7,
                                      std::numeric_limits<int32_t>::max()};
  ColumnView cv;
  cv.type = DataType::kString;
  cv.codes = codes.data();
  ExpectFilterKernelsMatchOracle(cv, codes, bounds);
}

}  // namespace
}  // namespace aimai
