// Vectorized execution engine: wall-time speedup of the columnar batch
// pipeline over the row-at-a-time interpreter on TPC-H-shaped plans, with
// bit-identity enforcement. Five plan shapes at SF 0.1:
//
//   filter    — Q6's selective conjunctive range predicates, output
//               materialized (scan + branchless filter kernels);
//   q6_agg    — the same predicates fused into an ungrouped SUM/COUNT
//               (Q6 proper: no intermediate row-set);
//   q1_group  — Q1's shape: a ~95%-pass date predicate under a grouped
//               aggregate over l_returnflag with the full function set;
//   q3_join   — Q3's shape: customer ⋈ orders ⋈ lineitem through two hash
//               joins, grouped on a two-table key, sorted, top 10;
//   nlj       — Q14's shape: part rows rebinding an index seek on
//               lineitem(l_partkey) with a shipdate residual, under a
//               scalar aggregate.
//
// Acceptance bars (nonzero exit on failure):
//   - the single-table shapes' vectorized path >= 3x over the row path:
//     the median per-pair row/vectorized time ratio over alternating
//     pairs (bench/report's RunAlternatingPairs), so one disturbed run
//     moves one sample, not the verdict (the join shapes report their
//     timings ungated);
//   - results, per-node actual cardinalities, and ExecutionCostModel
//     costs bit-identical between engines on every shape;
//   - a continuous-tuning run recommends identical configurations under
//     either engine.
//
// Emits machine-readable results to BENCH_exec.json in the working
// directory. Knobs: AIMAI_QUICK=1 shrinks the scale factor; AIMAI_SEED=<n>.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "exec/execution_cost.h"
#include "exec/executor.h"
#include "exec/vectorized_executor.h"
#include "harness.h"
#include "report.h"
#include "tuner/candidates.h"
#include "tuner/continuous_tuner.h"
#include "workloads/tpch_sf.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

int ColId(const Table& t, const std::string& name) {
  for (size_t i = 0; i < t.num_columns(); ++i) {
    if (t.column(i).name() == name) return static_cast<int>(i);
  }
  std::fprintf(stderr, "FATAL: column %s not found in %s\n", name.c_str(),
               t.name().c_str());
  std::exit(2);
}

Predicate RangePred(int table, int col, CmpOp op, Value lo,
                    Value hi = Value()) {
  Predicate p;
  p.table_id = table;
  p.column_id = col;
  p.op = op;
  p.lo = lo;
  p.hi = hi;
  return p;
}

/// Row/vectorized pairs timed per shape. On a shared 4-vCPU machine a
/// best-of-5 ratio of 0.5-2 ms runs flapped across the 3x bar (2.81x and
/// 3.21x for the same binary); one disturbed run moves the median of 101
/// pair ratios by one sample.
constexpr int kSpeedupPairs = 101;

struct ShapeResult {
  std::string name;
  bool gated = true;  // Held to the 3x speedup bar.
  double row_ms = 0;   // Median over the pairs.
  double vec_ms = 0;
  double speedup = 0;  // Median per-pair row/vectorized ratio.
  bool identical = true;
};

std::string StatsFingerprint(const PhysicalPlan& plan, double cost) {
  std::string out = StrFormat("cost=%.17g", cost);
  plan.root->Visit([&out](const PlanNode& n) {
    out += StrFormat("|%d:%.17g:%.17g:%.17g", static_cast<int>(n.op),
                     n.stats.actual_rows, n.stats.actual_executions,
                     n.stats.actual_access_rows);
  });
  return out;
}

std::string ResultFingerprint(const ExecResult& r) {
  std::string out = r.is_agg ? "agg" : "rows";
  if (r.is_agg) {
    for (size_t g = 0; g < r.agg.size(); ++g) {
      for (double k : r.agg.group_keys[g]) out += StrFormat("|%.17g", k);
      for (double v : r.agg.agg_values[g]) out += StrFormat("|%.17g", v);
    }
  } else {
    out += StrFormat("|n=%zu", r.rows.size());
    for (size_t i = 0; i < r.rows.size(); i += 97) {  // Sampled.
      const uint32_t* tuple = r.rows.tuple(i);
      for (size_t s = 0; s < r.rows.width(); ++s) {
        out += StrFormat("|%u", tuple[s]);
      }
    }
  }
  return out;
}

/// One timed execution of a fresh clone of a plan, with its result and
/// stats fingerprint.
struct EngineRun {
  double ms = 0;
  std::string fp;
};

EngineRun RunEngine(const Database& db, IndexManager* indexes,
                    const PhysicalPlan& plan, ExecMode mode) {
  auto owned = plan.Clone();
  Executor exec(&db, indexes);
  exec.set_mode(mode);
  EngineRun run;
  const double t0 = NowMs();
  const ExecResult result = exec.Execute(owned.get());
  run.ms = NowMs() - t0;
  ExecutionCostModel model(&db);
  const double cost = model.ComputeActualCost(owned.get());
  run.fp = ResultFingerprint(result) + "#" + StatsFingerprint(*owned, cost);
  return run;
}

ShapeResult RunShape(const std::string& name, const Database& db,
                     IndexManager* indexes, const PhysicalPlan& plan,
                     bool gated = true) {
  ShapeResult out;
  out.name = name;
  out.gated = gated;
  if (!VectorizedExecutor::CanExecute(*plan.root)) {
    std::fprintf(stderr, "FATAL: %s plan not vectorizable\n", name.c_str());
    std::exit(2);
  }
  const auto pairs = RunAlternatingPairs<EngineRun>(
      kSpeedupPairs,
      [&] { return RunEngine(db, indexes, plan, ExecMode::kRow); },
      [&] { return RunEngine(db, indexes, plan, ExecMode::kBatch); });
  std::vector<double> row_ms, vec_ms, ratios;
  for (const auto& [row, vec] : pairs) {
    row_ms.push_back(row.ms);
    vec_ms.push_back(vec.ms);
    ratios.push_back(row.ms / vec.ms);
    out.identical = out.identical && row.fp == pairs[0].first.fp &&
                    vec.fp == pairs[0].first.fp;
  }
  out.row_ms = Median(std::move(row_ms));
  out.vec_ms = Median(std::move(vec_ms));
  out.speedup = Median(std::move(ratios));
  return out;
}

/// Continuous tuning over a few Q6/Q1-family queries under one engine;
/// returns a fingerprint of every recommendation and measured cost. A
/// fresh same-seed database per engine: the noise RNG and index state
/// must start from the same point for a meaningful comparison.
std::string TuneFingerprint(const TpchSfOptions& topt, ExecMode mode,
                            size_t num_queries) {
  auto bdb = BuildTpchSf("exec_bench_tune", topt);
  TuningEnv env = bdb->MakeEnv(0);
  env.executor->set_mode(mode);
  CandidateGenerator candidates(bdb->db(), bdb->stats());
  ContinuousTuner::Options topts;
  topts.iterations = 2;
  ContinuousTuner tuner(&env, &candidates, topts);
  ContinuousTuner::ComparatorFactory factory =
      []() -> std::unique_ptr<CostComparator> {
    return std::make_unique<OptimizerComparator>(0.0, 0.2);
  };
  std::string out;
  for (size_t qi = 0; qi < num_queries && qi < bdb->queries().size(); ++qi) {
    const auto trace = tuner.TuneQuery(bdb->queries()[qi],
                                       bdb->initial_config(), factory,
                                       nullptr, nullptr);
    out += StrFormat("|%s:%.17g:%.17g:", trace.query_name.c_str(),
                     trace.initial_cost, trace.final_cost);
    out += trace.final_config.Fingerprint();
  }
  return out;
}

}  // namespace

int main() {
  const HarnessOptions opts = HarnessOptions::FromEnv();
  const bool quick = opts.scale_divisor > 2;
  const double sf = quick ? 0.02 : 0.1;

  TpchSfOptions topt;
  topt.sf = sf;
  topt.seed = opts.seed;
  topt.instances_per_family = 2;
  auto bdb = BuildTpchSf("exec_bench", topt);
  const Database& db = *bdb->db();
  const int li = db.FindTable("lineitem");
  const Table& lineitem = db.table(li);
  const size_t n = lineitem.num_rows();
  std::fprintf(stderr, "lineitem: %zu rows (SF %.2f)\n", n, sf);

  const int c_qty = ColId(lineitem, "l_quantity");
  const int c_price = ColId(lineitem, "l_extendedprice");
  const int c_disc = ColId(lineitem, "l_discount");
  const int c_ship = ColId(lineitem, "l_shipdate");
  const int c_flag = ColId(lineitem, "l_returnflag");

  // Q6's predicate set: one shipdate year, a narrow discount band, small
  // quantities — ~0.5% of lineitem qualifies.
  const std::vector<Predicate> q6_preds = {
      RangePred(li, c_disc, CmpOp::kBetween, Value::Real(0.02),
                Value::Real(0.04)),
      RangePred(li, c_ship, CmpOp::kBetween, Value::Int(365),
                Value::Int(729)),
      RangePred(li, c_qty, CmpOp::kLt, Value::Int(12))};

  PhysicalPlan filter_plan;
  filter_plan.root = std::make_unique<PlanNode>();
  filter_plan.root->op = PhysOp::kTableScan;
  filter_plan.root->table_id = li;
  filter_plan.root->residual_preds = q6_preds;

  PhysicalPlan q6_plan;
  {
    auto scan = std::make_unique<PlanNode>();
    scan->op = PhysOp::kTableScan;
    scan->table_id = li;
    scan->residual_preds = q6_preds;
    auto agg = std::make_unique<PlanNode>();
    agg->op = PhysOp::kStreamAggregate;
    agg->table_id = li;
    agg->aggregates = {{AggFunc::kSum, ColumnRef{li, c_price}},
                       {AggFunc::kSum, ColumnRef{li, c_disc}},
                       {AggFunc::kCount, {}}};
    agg->children.push_back(std::move(scan));
    q6_plan.root = std::move(agg);
  }

  PhysicalPlan q1_plan;
  {
    auto scan = std::make_unique<PlanNode>();
    scan->op = PhysOp::kTableScan;
    scan->table_id = li;
    scan->residual_preds = {RangePred(li, c_ship, CmpOp::kLe,
                                      Value::Int(2400))};  // ~94% pass.
    auto agg = std::make_unique<PlanNode>();
    agg->op = PhysOp::kHashAggregate;
    agg->table_id = li;
    agg->group_by = {ColumnRef{li, c_flag}};
    agg->aggregates = {{AggFunc::kCount, {}},
                       {AggFunc::kSum, ColumnRef{li, c_qty}},
                       {AggFunc::kSum, ColumnRef{li, c_price}},
                       {AggFunc::kAvg, ColumnRef{li, c_price}},
                       {AggFunc::kMin, ColumnRef{li, c_price}},
                       {AggFunc::kMax, ColumnRef{li, c_price}}};
    agg->children.push_back(std::move(scan));
    q1_plan.root = std::move(agg);
  }

  // Q3's shape over three tables.
  const int cu = db.FindTable("customer");
  const int od = db.FindTable("orders");
  const Table& customer = db.table(cu);
  const Table& orders = db.table(od);
  const int c_seg = ColId(customer, "c_mktsegment");
  const int o_date = ColId(orders, "o_orderdate");
  const int l_orderkey = ColId(lineitem, "l_orderkey");
  PhysicalPlan q3_plan;
  {
    auto scan = [](int table, std::vector<Predicate> preds) {
      auto n = std::make_unique<PlanNode>();
      n->op = PhysOp::kTableScan;
      n->table_id = table;
      n->residual_preds = std::move(preds);
      return n;
    };
    auto join = [](ColumnRef build, ColumnRef probe,
                   std::unique_ptr<PlanNode> b, std::unique_ptr<PlanNode> p) {
      auto n = std::make_unique<PlanNode>();
      n->op = PhysOp::kHashJoin;
      n->join = {build, probe};
      n->children.push_back(std::move(b));
      n->children.push_back(std::move(p));
      return n;
    };
    const std::string& segment = customer.column(c_seg).dictionary()[1];
    auto co = join(ColumnRef{cu, ColId(customer, "c_custkey")},
                   ColumnRef{od, ColId(orders, "o_custkey")},
                   scan(cu, {RangePred(cu, c_seg, CmpOp::kEq,
                                       Value::Str(segment))}),
                   scan(od, {RangePred(od, o_date, CmpOp::kLt,
                                       Value::Int(1200))}));
    auto col = join(ColumnRef{od, ColId(orders, "o_orderkey")},
                    ColumnRef{li, l_orderkey}, std::move(co),
                    scan(li, {RangePred(li, c_ship, CmpOp::kGt,
                                        Value::Int(1200))}));
    auto agg = std::make_unique<PlanNode>();
    agg->op = PhysOp::kHashAggregate;
    agg->group_by = {ColumnRef{li, l_orderkey}, ColumnRef{od, o_date}};
    agg->aggregates = {{AggFunc::kSum, ColumnRef{li, c_price}}};
    agg->children.push_back(std::move(col));
    auto sort = std::make_unique<PlanNode>();
    sort->op = PhysOp::kSort;
    sort->sort_keys = {SortKey{ColumnRef{od, o_date}, false}};
    sort->children.push_back(std::move(agg));
    q3_plan.root = std::make_unique<PlanNode>();
    q3_plan.root->op = PhysOp::kTop;
    q3_plan.root->top_n = 10;
    q3_plan.root->children.push_back(std::move(sort));
  }

  // Q14's shape as a nested loop: every part row rebinds a seek on
  // lineitem's l_partkey index (built before timing).
  const int pa = db.FindTable("part");
  PhysicalPlan nlj_plan;
  {
    IndexDef by_part;
    by_part.table_id = li;
    by_part.key_columns = {ColId(lineitem, "l_partkey")};
    bdb->indexes()->GetOrBuild(by_part);
    auto outer = std::make_unique<PlanNode>();
    outer->op = PhysOp::kTableScan;
    outer->table_id = pa;
    auto inner = std::make_unique<PlanNode>();
    inner->op = PhysOp::kIndexSeek;
    inner->table_id = li;
    inner->index = by_part;
    inner->residual_preds = {RangePred(li, c_ship, CmpOp::kBetween,
                                       Value::Int(900), Value::Int(1000))};
    auto nlj = std::make_unique<PlanNode>();
    nlj->op = PhysOp::kNestedLoopJoin;
    nlj->join = {ColumnRef{pa, ColId(db.table(pa), "p_partkey")},
                 ColumnRef{li, by_part.key_columns[0]}};
    nlj->children.push_back(std::move(outer));
    nlj->children.push_back(std::move(inner));
    nlj_plan.root = std::make_unique<PlanNode>();
    nlj_plan.root->op = PhysOp::kStreamAggregate;
    nlj_plan.root->aggregates = {{AggFunc::kSum, ColumnRef{li, c_price}},
                                 {AggFunc::kCount, {}}};
    nlj_plan.root->children.push_back(std::move(nlj));
  }

  std::vector<ShapeResult> shapes;
  shapes.push_back(RunShape("filter", db, bdb->indexes(), filter_plan));
  shapes.push_back(RunShape("q6_agg", db, bdb->indexes(), q6_plan));
  shapes.push_back(RunShape("q1_group", db, bdb->indexes(), q1_plan));
  shapes.push_back(RunShape("q3_join", db, bdb->indexes(), q3_plan,
                            /*gated=*/false));
  shapes.push_back(RunShape("nlj", db, bdb->indexes(), nlj_plan,
                            /*gated=*/false));

  std::vector<std::vector<std::string>> t1;
  t1.push_back({"shape", "row ms", "vectorized ms", "speedup", "result"});
  for (const ShapeResult& s : shapes) {
    t1.push_back({s.name, F3(s.row_ms), F3(s.vec_ms),
                  StrFormat("%.2fx%s", s.speedup, s.gated ? "" : " (ungated)"),
                  s.identical ? "same result" : "DIFFERENT"});
  }
  PrintTable(StrFormat("Row vs vectorized execution (lineitem %zu rows, "
                       "median of %d alternating pairs)",
                       n, kSpeedupPairs),
             t1);

  // Recommendation cross-check: the engine choice must be invisible to
  // the tuner end to end.
  const size_t tune_queries = quick ? 3 : 5;
  TpchSfOptions tune_opt = topt;
  tune_opt.sf = quick ? 0.01 : 0.02;  // Tuning executes many plans.
  const std::string fp_row =
      TuneFingerprint(tune_opt, ExecMode::kRow, tune_queries);
  const std::string fp_vec =
      TuneFingerprint(tune_opt, ExecMode::kBatch, tune_queries);
  const bool tune_match = fp_row == fp_vec;
  std::fprintf(stderr, "tuning recommendations %s\n",
               tune_match ? "identical" : "DIVERGED");

  Report report("exec");
  report.Num("sf", sf, 2)
      .Int("lineitem_rows", static_cast<int64_t>(n))
      .BeginObject("shapes");
  for (const ShapeResult& s : shapes) {
    report.BeginObject(s.name.c_str())
        .Num("row_ms", s.row_ms, 3)
        .Num("vectorized_ms", s.vec_ms, 3)
        .Num("speedup", s.speedup, 2)
        .Bool("gated", s.gated)
        .Bool("identical", s.identical)
        .EndObject();
  }
  report.EndObject().Bool("tuning_identical", tune_match).Write();

  bool ok = true;
  for (const ShapeResult& s : shapes) {
    if (!s.identical) {
      std::fprintf(stderr,
                   "FAIL: %s results/stats/costs diverged between "
                   "engines\n",
                   s.name.c_str());
      ok = false;
    }
    if (s.gated && s.speedup < 3.0) {
      std::fprintf(stderr, "FAIL: %s vectorized speedup was %.2fx "
                   "(need >= 3x)\n",
                   s.name.c_str(), s.speedup);
      ok = false;
    }
  }
  if (!tune_match) {
    std::fprintf(stderr,
                 "FAIL: tuning recommendations diverged between engines\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
