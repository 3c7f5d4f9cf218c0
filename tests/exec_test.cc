// Unit & property tests for exec/: predicate resolution, join operators
// against oracles, executor correctness vs. a naive evaluator on random
// queries and configurations, and the execution cost model.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <unordered_map>

#include "exec/execution_cost.h"
#include "exec/executor.h"
#include "optimizer/plan_enumerator.h"
#include "storage/data_generator.h"
#include "tuner/candidates.h"
#include "workloads/customer.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

TEST(ExpressionTest, ResolveOperators) {
  Database db("d");
  DataGenerator gen(Rng{1});
  auto t = std::make_unique<Table>("t");
  gen.FillSequentialInt(t->AddColumn("a", DataType::kInt64), 10);
  t->SealRows();
  db.AddTable(std::move(t));

  Predicate p;
  p.table_id = 0;
  p.column_id = 0;
  p.op = CmpOp::kLt;
  p.lo = Value::Int(5);
  NumericBounds b = p.Resolve(db);
  EXPECT_FALSE(b.has_lo);
  EXPECT_TRUE(b.has_hi && b.hi_open);
  EXPECT_TRUE(b.Contains(4));
  EXPECT_FALSE(b.Contains(5));

  p.op = CmpOp::kGe;
  b = p.Resolve(db);
  EXPECT_TRUE(b.Contains(5));
  EXPECT_FALSE(b.Contains(4.9));

  p.op = CmpOp::kBetween;
  p.lo = Value::Int(2);
  p.hi = Value::Int(4);
  b = p.Resolve(db);
  EXPECT_TRUE(b.Contains(2) && b.Contains(4));
  EXPECT_FALSE(b.Contains(1.9) || b.Contains(4.1));
}

TEST(ExpressionTest, ConjunctionIntersectsSameColumn) {
  Database db("d");
  DataGenerator gen(Rng{1});
  auto t = std::make_unique<Table>("t");
  gen.FillSequentialInt(t->AddColumn("a", DataType::kInt64), 10);
  t->SealRows();
  db.AddTable(std::move(t));

  Predicate ge;
  ge.table_id = 0;
  ge.column_id = 0;
  ge.op = CmpOp::kGe;
  ge.lo = Value::Int(3);
  Predicate lt = ge;
  lt.op = CmpOp::kLt;
  lt.lo = Value::Int(7);
  const auto bounds = ResolveConjunction(db, {ge, lt});
  ASSERT_EQ(bounds.size(), 1u);
  EXPECT_TRUE(bounds[0].second.Contains(3));
  EXPECT_TRUE(bounds[0].second.Contains(6.5));
  EXPECT_FALSE(bounds[0].second.Contains(7));
  EXPECT_FALSE(bounds[0].second.Contains(2.5));
}

TEST(OperatorsTest, HashJoinMatchesMergeJoin) {
  Database db("d");
  DataGenerator gen(Rng{5});
  auto t1 = std::make_unique<Table>("l");
  gen.FillUniformInt(t1->AddColumn("k", DataType::kInt64), 200, 0, 20);
  t1->SealRows();
  db.AddTable(std::move(t1));
  auto t2 = std::make_unique<Table>("r");
  gen.FillUniformInt(t2->AddColumn("k", DataType::kInt64), 150, 0, 20);
  t2->SealRows();
  db.AddTable(std::move(t2));

  RowSet left, right;
  left.tables = {0};
  for (uint32_t i = 0; i < 200; ++i) left.ids.push_back(i);
  right.tables = {1};
  for (uint32_t i = 0; i < 150; ++i) right.ids.push_back(i);

  const ColumnRef lk{0, 0};
  const ColumnRef rk{1, 0};
  RowSet hj = HashJoinRows(db, left, lk, right, rk);

  RowSet sl = left, sr = right;
  SortRows(db, &sl, {SortKey{lk, true}});
  SortRows(db, &sr, {SortKey{rk, true}});
  RowSet mj = MergeJoinRows(db, sl, lk, sr, rk);

  EXPECT_EQ(hj.size(), mj.size());
  // Same multiset of (left row, right row) pairs. Note hash-join output
  // tuple layout is probe-then-build (right, left here since left=build).
  auto canon = [](const RowSet& rs, int lslot, int rslot) {
    std::multiset<std::pair<uint32_t, uint32_t>> out;
    for (size_t t = 0; t < rs.size(); ++t) {
      out.insert({rs.tuple(t)[static_cast<size_t>(lslot)],
                  rs.tuple(t)[static_cast<size_t>(rslot)]});
    }
    return out;
  };
  EXPECT_EQ(canon(hj, hj.SlotOf(0), hj.SlotOf(1)),
            canon(mj, mj.SlotOf(0), mj.SlotOf(1)));
}

// Three tables of one double column each, drawn from a small domain with
// both signed zeros (and optionally NaN), so joins and sorts see many ties.
std::unique_ptr<Database> MakeTieDb(Rng* rng, size_t rows, bool with_nan) {
  auto db = std::make_unique<Database>("ties");
  for (int t = 0; t < 3; ++t) {
    auto table = std::make_unique<Table>("t" + std::to_string(t));
    Column* c = table->AddColumn("k", DataType::kDouble);
    for (size_t r = 0; r < rows; ++r) {
      const double choices[] = {-0.0, 0.0, 1.0, 2.0, -3.0, 4.5};
      double v = choices[rng->Index(6)];
      if (with_nan && rng->Bernoulli(0.05)) {
        v = std::numeric_limits<double>::quiet_NaN();
      }
      c->AppendDouble(v);
    }
    table->SealRows();
    db->AddTable(std::move(table));
  }
  return db;
}

// A RowSet over `tables` with `n` random tuples.
RowSet RandomRows(const Database& db, const std::vector<int>& tables,
                  size_t n, Rng* rng) {
  RowSet rs;
  rs.tables = tables;
  for (size_t t = 0; t < n; ++t) {
    for (int table : tables) {
      rs.ids.push_back(
          static_cast<uint32_t>(rng->Index(db.table(table).num_rows())));
    }
  }
  return rs;
}

double ValueOf(const Database& db, ColumnRef col, uint32_t row) {
  return db.table(col.table_id)
      .column(static_cast<size_t>(col.column_id))
      .NumericAt(row);
}

TEST(OperatorsTest, HashJoinOrderMatchesUnorderedMultimap) {
  for (uint64_t seed = 0; seed < 40; ++seed) {
    Rng rng(seed);
    const auto owned = MakeTieDb(&rng, 60, /*with_nan=*/seed % 2 == 1);
    const Database& db = *owned;
    const RowSet build = RandomRows(db, {0, 2}, rng.Index(120), &rng);
    const RowSet probe = RandomRows(db, {1}, rng.Index(120), &rng);
    const ColumnRef bk{0, 0};
    const ColumnRef pk{1, 0};

    // Reference: the multimap-based join, probe-major, build matches in
    // equal_range order.
    std::unordered_multimap<double, size_t> table;
    table.reserve(build.size());
    for (size_t t = 0; t < build.size(); ++t) {
      table.emplace(ValueOf(db, bk, build.tuple(t)[0]), t);
    }
    std::vector<uint32_t> expected;
    for (size_t t = 0; t < probe.size(); ++t) {
      auto [lo, hi] = table.equal_range(ValueOf(db, pk, probe.tuple(t)[0]));
      for (auto it = lo; it != hi; ++it) {
        expected.push_back(probe.tuple(t)[0]);
        expected.push_back(build.tuple(it->second)[0]);
        expected.push_back(build.tuple(it->second)[1]);
      }
    }

    const RowSet got = HashJoinRows(db, build, bk, probe, pk);
    EXPECT_EQ(got.tables, (std::vector<int>{1, 0, 2}));
    ASSERT_EQ(got.ids, expected) << "seed " << seed;
  }
}

TEST(OperatorsTest, SortRowsPermutationMatchesSortingTupleVectors) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    const auto owned = MakeTieDb(&rng, 50, /*with_nan=*/false);
    const Database& db = *owned;
    RowSet rs = RandomRows(db, {0, 1}, 200 + rng.Index(800), &rng);
    const std::vector<SortKey> keys = {SortKey{ColumnRef{1, 0}, false},
                                       SortKey{ColumnRef{0, 0}, true}};

    // Reference: std::sort over per-tuple vectors with the same comparator.
    std::vector<std::vector<uint32_t>> tuples;
    for (size_t t = 0; t < rs.size(); ++t) {
      tuples.emplace_back(rs.tuple(t), rs.tuple(t) + rs.width());
    }
    std::sort(tuples.begin(), tuples.end(),
              [&](const std::vector<uint32_t>& a,
                  const std::vector<uint32_t>& b) {
                for (const SortKey& k : keys) {
                  const size_t slot = k.col.table_id == 0 ? 0 : 1;
                  const double av = ValueOf(db, k.col, a[slot]);
                  const double bv = ValueOf(db, k.col, b[slot]);
                  if (av != bv) return k.ascending ? av < bv : av > bv;
                }
                return false;
              });
    std::vector<uint32_t> expected;
    for (const auto& t : tuples) {
      expected.insert(expected.end(), t.begin(), t.end());
    }

    SortRows(db, &rs, keys);
    ASSERT_EQ(rs.ids, expected) << "seed " << seed;
  }
}

TEST(OperatorsTest, AggregateRowsComputesAllFunctions) {
  Database db("d");
  auto t = std::make_unique<Table>("t");
  Column* g = t->AddColumn("g", DataType::kInt64);
  Column* v = t->AddColumn("v", DataType::kInt64);
  const int64_t gs[] = {1, 1, 2, 2, 2};
  const int64_t vs[] = {10, 20, 5, 15, 25};
  for (int i = 0; i < 5; ++i) {
    g->AppendInt(gs[i]);
    v->AppendInt(vs[i]);
  }
  t->SealRows();
  db.AddTable(std::move(t));

  RowSet in;
  in.tables = {0};
  for (uint32_t i = 0; i < 5; ++i) in.ids.push_back(i);
  const std::vector<AggItem> aggs = {{AggFunc::kCount, {}},
                                     {AggFunc::kSum, ColumnRef{0, 1}},
                                     {AggFunc::kAvg, ColumnRef{0, 1}},
                                     {AggFunc::kMin, ColumnRef{0, 1}},
                                     {AggFunc::kMax, ColumnRef{0, 1}}};
  AggResult res = AggregateRows(db, in, {ColumnRef{0, 0}}, aggs);
  ASSERT_EQ(res.size(), 2u);
  SortAggResult(&res);
  EXPECT_EQ(res.group_keys[0][0], 1.0);
  EXPECT_EQ(res.agg_values[0], (std::vector<double>{2, 30, 15, 10, 20}));
  EXPECT_EQ(res.group_keys[1][0], 2.0);
  EXPECT_EQ(res.agg_values[1], (std::vector<double>{3, 45, 15, 5, 25}));
}

// Naive reference evaluator for SPJA queries: filters each table, forms
// the join result by nested loops, then aggregates.
struct NaiveResult {
  size_t join_rows = 0;
  std::map<std::vector<double>, double> group_counts;
};

NaiveResult NaiveEvaluate(const Database& db, const QuerySpec& q) {
  NaiveResult out;
  // Filtered row lists per table.
  std::map<int, std::vector<uint32_t>> filtered;
  for (int t : q.tables) {
    const auto bounds = ResolveConjunction(db, q.PredicatesOn(t));
    std::vector<uint32_t> rows;
    for (size_t r = 0; r < db.table(t).num_rows(); ++r) {
      if (RowMatches(db.table(t), bounds, r)) {
        rows.push_back(static_cast<uint32_t>(r));
      }
    }
    filtered[t] = std::move(rows);
  }
  // Nested-loop join across all tables (exponential — tests keep tables
  // and filtered sizes tiny).
  std::vector<std::map<int, uint32_t>> tuples = {{}};
  for (int t : q.tables) {
    std::vector<std::map<int, uint32_t>> next;
    for (const auto& partial : tuples) {
      for (uint32_t r : filtered[t]) {
        std::map<int, uint32_t> ext = partial;
        ext[t] = r;
        bool ok = true;
        for (const JoinCond& j : q.joins) {
          auto li = ext.find(j.left.table_id);
          auto ri = ext.find(j.right.table_id);
          if (li == ext.end() || ri == ext.end()) continue;
          const double lv = db.table(j.left.table_id)
                                .column(static_cast<size_t>(j.left.column_id))
                                .NumericAt(li->second);
          const double rv =
              db.table(j.right.table_id)
                  .column(static_cast<size_t>(j.right.column_id))
                  .NumericAt(ri->second);
          if (lv != rv) {
            ok = false;
            break;
          }
        }
        if (ok) next.push_back(std::move(ext));
      }
    }
    tuples = std::move(next);
  }
  out.join_rows = tuples.size();
  for (const auto& tp : tuples) {
    std::vector<double> key;
    for (const ColumnRef& c : q.group_by) {
      key.push_back(db.table(c.table_id)
                        .column(static_cast<size_t>(c.column_id))
                        .NumericAt(tp.at(c.table_id)));
    }
    out.group_counts[key] += 1;
  }
  return out;
}

// Property test: the optimizer's chosen plan, executed, produces exactly
// the naive evaluator's result — across random configurations (different
// configurations exercise different operators on the same query).
class ExecutorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecutorProperty, PlanResultMatchesNaiveEvaluator) {
  const uint64_t seed = GetParam();
  CustomerProfile prof;
  prof.num_tables = 4;
  prof.min_rows = 50;
  prof.max_rows = 400;
  prof.num_queries = 6;
  prof.max_joins = 3;
  prof.zipf_s = 0.8;
  auto bdb = BuildCustomer("exec_prop", prof, seed);
  Rng rng(seed ^ 0xabc);

  CandidateGenerator candidates(bdb->db(), bdb->stats());
  for (const QuerySpec& q : bdb->queries()) {
    // Random configuration from the candidate set.
    const std::vector<IndexDef> cands = candidates.Generate(q, {});
    Configuration config;
    for (const IndexDef& def : cands) {
      if (rng.Bernoulli(0.4)) config.Add(def);
    }

    const auto plan = bdb->what_if()->Optimize(q, config);
    auto owned = plan->Clone();
    Executor exec(bdb->db(), bdb->indexes());
    const ExecResult result = exec.Execute(owned.get());

    const NaiveResult naive = NaiveEvaluate(*bdb->db(), q);
    if (q.HasAggregation() && !q.group_by.empty()) {
      // Number of groups must match; each group's COUNT must match when
      // COUNT is among the aggregates.
      size_t expected_groups =
          std::min<size_t>(naive.group_counts.size(),
                           q.top_n > 0 ? static_cast<size_t>(q.top_n)
                                       : naive.group_counts.size());
      ASSERT_TRUE(result.is_agg);
      EXPECT_EQ(result.agg.size(), expected_groups)
          << q.ToString(*bdb->db());
    } else if (!q.HasAggregation()) {
      size_t expected = naive.join_rows;
      if (q.top_n > 0) {
        expected = std::min(expected, static_cast<size_t>(q.top_n));
      }
      ASSERT_FALSE(result.is_agg);
      EXPECT_EQ(result.rows.size(), expected) << q.ToString(*bdb->db());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ExecutorProperty,
                         ::testing::Range<uint64_t>(100, 110));

TEST(ExecutionCostTest, ActualCostPositiveAndComposable) {
  auto bdb = BuildTpchLike("cost_t", 1, 0.5, 3);
  const QuerySpec& q = bdb->queries()[0];
  const auto plan = bdb->what_if()->Optimize(q, {});
  auto owned = plan->Clone();
  Executor exec(bdb->db(), bdb->indexes());
  exec.Execute(owned.get());
  ExecutionCostModel model(bdb->db());
  const double total = model.ComputeActualCost(owned.get());
  EXPECT_GT(total, 0);
  // Total equals the sum of node costs.
  double sum = 0;
  owned->root->Visit([&sum](const PlanNode& n) { sum += n.stats.actual_cost; });
  EXPECT_NEAR(total, sum, 1e-9);
}

TEST(ExecutionCostTest, NoisySamplesVaryAroundActual) {
  auto bdb = BuildTpchLike("cost_n", 1, 0.5, 4);
  const QuerySpec& q = bdb->queries()[2];
  auto owned = bdb->what_if()->Optimize(q, {})->Clone();
  Executor exec(bdb->db(), bdb->indexes());
  exec.Execute(owned.get());
  ExecutionCostModel model(bdb->db());
  const double actual = model.ComputeActualCost(owned.get());
  Rng rng(9);
  double sum = 0;
  double mn = 1e300, mx = 0;
  const int n = 200;
  for (int i = 0; i < n; ++i) {
    const double s = model.SampleNoisyCost(*owned, &rng);
    sum += s;
    mn = std::min(mn, s);
    mx = std::max(mx, s);
  }
  EXPECT_NEAR(sum / n, actual, actual * 0.1);
  EXPECT_GT(mx, mn);               // Noise present.
  EXPECT_LT(mx / mn, 2.0);         // But bounded.
}

TEST(ExecutionCostTest, OptimizerBeliefDiffersFromTruth) {
  const CostConstants truth = CostConstants::True();
  const CostConstants belief = CostConstants::OptimizerBelief();
  EXPECT_LT(belief.key_lookup, truth.key_lookup);
  EXPECT_FALSE(belief.cache_effects);
  EXPECT_TRUE(truth.cache_effects);
}

}  // namespace
}  // namespace aimai
