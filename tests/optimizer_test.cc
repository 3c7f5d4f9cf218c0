// Unit tests for optimizer/: histograms, cardinality estimation, plan
// enumeration invariants, what-if semantics.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>
#include <string>

#include "common/serialize.h"
#include "models/repository_io.h"
#include "optimizer/cardinality_estimator.h"
#include "optimizer/histogram.h"
#include "optimizer/plan_enumerator.h"
#include "optimizer/what_if.h"
#include "storage/data_generator.h"
#include "tuner/candidates.h"
#include "workloads/query_helpers.h"
#include "workloads/query_stream.h"
#include "workloads/tpcds_like.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

using workload_internal::Col;
using workload_internal::Join;
using workload_internal::PredBetween;
using workload_internal::PredCmp;
using workload_internal::PredEq;

TEST(HistogramTest, UniformRangeEstimatesAreAccurate) {
  DataGenerator gen(Rng{1});
  Column c("x", DataType::kInt64);
  gen.FillUniformInt(&c, 50000, 0, 999);
  Histogram h = Histogram::Build(c, 16);
  EXPECT_DOUBLE_EQ(h.row_count(), 50000);
  EXPECT_NEAR(h.distinct_count(), 1000, 5);

  NumericBounds range;
  range.has_lo = range.has_hi = true;
  range.lo = 100;
  range.hi = 299;
  EXPECT_NEAR(h.EstimateSelectivity(range), 0.2, 0.03);

  NumericBounds open;
  open.has_hi = true;
  open.hi = 500;
  EXPECT_NEAR(h.EstimateSelectivity(open), 0.5, 0.03);
}

TEST(HistogramTest, PointEstimateUsesUniformFrequency) {
  DataGenerator gen(Rng{2});
  Column c("x", DataType::kInt64);
  gen.FillZipfInt(&c, 20000, 0, 100, 1.0);
  Histogram h = Histogram::Build(c, 16);
  NumericBounds point;
  point.has_lo = point.has_hi = true;
  point.lo = point.hi = 0;  // The heavy value.
  // The estimate is 1/NDV regardless of skew — by design, this badly
  // underestimates the heavy value (the paper's premise).
  const double est = h.EstimateSelectivity(point);
  EXPECT_NEAR(est, 1.0 / h.distinct_count(), 1e-9);
  int actual = 0;
  for (size_t i = 0; i < c.size(); ++i) {
    if (c.GetInt(i) == 0) ++actual;
  }
  EXPECT_GT(static_cast<double>(actual) / 20000.0, 5 * est);
}

TEST(HistogramTest, OutOfDomainIsZero) {
  DataGenerator gen(Rng{3});
  Column c("x", DataType::kInt64);
  gen.FillUniformInt(&c, 1000, 10, 20);
  Histogram h = Histogram::Build(c, 8);
  NumericBounds point;
  point.has_lo = point.has_hi = true;
  point.lo = point.hi = 100;
  EXPECT_DOUBLE_EQ(h.EstimateSelectivity(point), 0.0);
  NumericBounds below;
  below.has_hi = true;
  below.hi_open = true;
  below.hi = 10;
  EXPECT_NEAR(h.EstimateSelectivity(below), 0.0, 0.02);
}

TEST(CardinalityTest, IndependenceMultipliesSelectivities) {
  auto bdb = BuildTpchLike("card", 2, 0.0, 11);  // Uniform data.
  StatisticsCatalog stats(bdb->db());
  CardinalityEstimator card(&stats);
  const Database& d = *bdb->db();
  const int li = d.FindTable("lineitem");
  const int shipdate = Col(d, li, "l_shipdate");
  const int quantity = Col(d, li, "l_quantity");

  const Predicate p1 = PredBetween(li, shipdate, Value::Int(0),
                                   Value::Int(1249));  // ~half the span.
  const Predicate p2 =
      PredCmp(li, quantity, CmpOp::kLe, Value::Int(25));  // ~half.
  const double s1 = card.ConjunctionSelectivity(li, {p1});
  const double s2 = card.ConjunctionSelectivity(li, {p2});
  const double s12 = card.ConjunctionSelectivity(li, {p1, p2});
  EXPECT_NEAR(s12, s1 * s2, 0.02);
}

TEST(CardinalityTest, FkJoinEstimateNearChildSize) {
  auto bdb = BuildTpchLike("cardj", 2, 0.0, 12);
  StatisticsCatalog stats(bdb->db());
  CardinalityEstimator card(&stats);
  const Database& d = *bdb->db();
  const int li = d.FindTable("lineitem");
  const int ord = d.FindTable("orders");
  const JoinCond j = Join(li, Col(d, li, "l_orderkey"), ord,
                          Col(d, ord, "o_orderkey"));
  const double est = card.EstimateJoinRows(stats.TableRows(li),
                                           stats.TableRows(ord), j);
  // FK join: |lineitem| x |orders| / ndv(orderkey) ~ |lineitem|.
  EXPECT_NEAR(est, stats.TableRows(li), stats.TableRows(li) * 0.1);
}

TEST(CardinalityTest, GroupEstimateCappedByInput) {
  auto bdb = BuildTpchLike("cardg", 1, 0.0, 13);
  StatisticsCatalog stats(bdb->db());
  CardinalityEstimator card(&stats);
  const Database& d = *bdb->db();
  const int li = d.FindTable("lineitem");
  const double groups = card.EstimateGroups(
      10.0, {ColumnRef{li, Col(d, li, "l_orderkey")}});
  EXPECT_LE(groups, 10.0);
  EXPECT_GE(groups, 1.0);
}

TEST(PlanEnumeratorTest, SeekChosenForSelectivePredicateWithIndex) {
  auto bdb = BuildTpchLike("enum1", 2, 0.0, 14);
  const Database& d = *bdb->db();
  const int ord = d.FindTable("orders");

  QuerySpec q;
  q.name = "point";
  q.tables = {ord};
  q.predicates = {PredEq(ord, Col(d, ord, "o_custkey"), Value::Int(3))};
  q.select_columns = {ColumnRef{ord, Col(d, ord, "o_orderdate")}};

  // Without an index: scan.
  const auto p0 = bdb->what_if()->Optimize(q, {});
  EXPECT_EQ(p0->root->op, PhysOp::kTableScan);

  // With a covering index: seek, and cheaper by estimate.
  Configuration config;
  IndexDef idx;
  idx.table_id = ord;
  idx.key_columns = {Col(d, ord, "o_custkey")};
  idx.include_columns = {Col(d, ord, "o_orderdate")};
  config.Add(idx);
  const auto p1 = bdb->what_if()->Optimize(q, config);
  bool has_seek = false;
  p1->root->Visit([&has_seek](const PlanNode& n) {
    if (n.op == PhysOp::kIndexSeek) has_seek = true;
  });
  EXPECT_TRUE(has_seek);
  EXPECT_LT(p1->est_total_cost, p0->est_total_cost);
}

TEST(PlanEnumeratorTest, KeyLookupForNonCoveringIndex) {
  auto bdb = BuildTpchLike("enum2", 2, 0.0, 15);
  const Database& d = *bdb->db();
  const int ord = d.FindTable("orders");

  QuerySpec q;
  q.name = "noncover";
  q.tables = {ord};
  q.predicates = {PredEq(ord, Col(d, ord, "o_custkey"), Value::Int(3))};
  q.select_columns = {ColumnRef{ord, Col(d, ord, "o_totalprice")}};

  Configuration config;
  IndexDef idx;
  idx.table_id = ord;
  idx.key_columns = {Col(d, ord, "o_custkey")};  // No includes.
  config.Add(idx);
  const auto p = bdb->what_if()->Optimize(q, config);
  bool has_lookup = false;
  p->root->Visit([&has_lookup](const PlanNode& n) {
    if (n.op == PhysOp::kKeyLookup) has_lookup = true;
  });
  EXPECT_TRUE(has_lookup);
}

TEST(PlanEnumeratorTest, ColumnstoreScanUnderColumnstoreConfig) {
  auto bdb = BuildTpchLike("enum3", 2, 0.0, 16);
  const Database& d = *bdb->db();
  const int li = d.FindTable("lineitem");
  const QuerySpec* agg_query = nullptr;
  for (const QuerySpec& q : bdb->queries()) {
    if (q.tables.size() == 1 && q.tables[0] == li && q.HasAggregation()) {
      agg_query = &q;
      break;
    }
  }
  ASSERT_NE(agg_query, nullptr);
  Configuration config;
  IndexDef cs;
  cs.table_id = li;
  cs.is_columnstore = true;
  config.Add(cs);
  const auto p = bdb->what_if()->Optimize(*agg_query, config);
  bool has_cs = false;
  p->root->Visit([&has_cs](const PlanNode& n) {
    if (n.op == PhysOp::kColumnstoreScan) {
      has_cs = true;
      EXPECT_EQ(n.mode, ExecMode::kBatch);
    }
  });
  EXPECT_TRUE(has_cs);
}

TEST(PlanEnumeratorTest, EstimatesPopulatedOnEveryNode) {
  auto bdb = BuildTpchLike("enum4", 1, 0.9, 17);
  for (const QuerySpec& q : bdb->queries()) {
    const auto p = bdb->what_if()->Optimize(q, {});
    EXPECT_GT(p->est_total_cost, 0) << q.name;
    p->root->Visit([&q](const PlanNode& n) {
      EXPECT_GE(n.stats.est_rows, 0) << q.name;
      EXPECT_GE(n.stats.est_cost, 0) << q.name;
      EXPECT_GT(n.stats.est_subtree_cost, 0) << q.name;
    });
    // Subtree cost at root ~ total minus parallel startup.
    EXPECT_LE(p->root->stats.est_subtree_cost, p->est_total_cost + 1e-9);
  }
}

TEST(PlanEnumeratorTest, MoreIndexesNeverHurtEstimatedCost) {
  // The optimizer picks the cheapest plan in a superset search space, so
  // est cost must be monotone non-increasing in the configuration.
  auto bdb = BuildTpchLike("enum5", 1, 0.9, 18);
  const Database& d = *bdb->db();
  const int li = d.FindTable("lineitem");
  IndexDef idx;
  idx.table_id = li;
  idx.key_columns = {Col(d, li, "l_shipdate")};
  Configuration config;
  config.Add(idx);
  for (const QuerySpec& q : bdb->queries()) {
    const double base = bdb->what_if()->Optimize(q, {})->est_total_cost;
    const double with = bdb->what_if()->Optimize(q, config)->est_total_cost;
    EXPECT_LE(with, base + 1e-9) << q.name;
  }
}

TEST(WhatIfTest, CacheKeyedByQueryAndConfig) {
  auto bdb = BuildTpchLike("wi", 1, 0.5, 19);
  const QuerySpec& q0 = bdb->queries()[0];
  const QuerySpec& q1 = bdb->queries()[1];
  Configuration empty;
  const auto a = bdb->what_if()->Optimize(q0, empty);
  const auto b = bdb->what_if()->Optimize(q1, empty);
  EXPECT_NE(a, b);
  EXPECT_EQ(bdb->what_if()->Optimize(q0, empty), a);

  IndexDef idx;
  idx.table_id = q0.tables[0];
  idx.key_columns = {0};
  Configuration c2;
  c2.Add(idx);
  EXPECT_NE(bdb->what_if()->Optimize(q0, c2), a);
}

// Golden plans: every plan of a (query x configuration) sweep, serialized
// with SavePhysicalPlan and hashed, must equal hashes recorded before the
// join search was reduced to one DP over a flat table, so no refactor of
// the enumerator can move one bit of a plan. Configurations per query are
// the base configuration, each single candidate on top of it, and the
// cumulative prefixes of the candidate list.
struct PlanSweep {
  uint64_t hash = 14695981039346656037ull;
  std::set<PhysOp> ops;
  std::set<PhysOp> nlj_inners;
  bool parallel = false;
  int plans = 0;

  void Add(const PhysicalPlan& plan) {
    std::ostringstream out;
    TokenWriter w(&out);
    SavePhysicalPlan(&w, plan);
    hash = (hash ^ Fnv1a64(out.str())) * 1099511628211ull;
    plan.root->Visit([this](const PlanNode& n) {
      ops.insert(n.op);
      if (n.op == PhysOp::kNestedLoopJoin) nlj_inners.insert(n.child(1)->op);
    });
    parallel = parallel || plan.degree_of_parallelism > 1;
    ++plans;
  }
};

void SweepQueries(BenchmarkDatabase* bdb, const std::vector<QuerySpec>& qs,
                  PlanSweep* sweep) {
  PlanEnumerator enumerator(bdb->db(), bdb->stats());
  CandidateGenerator candidates(bdb->db(), bdb->stats());
  const Configuration& base = bdb->initial_config();
  for (const QuerySpec& q : qs) {
    sweep->Add(*enumerator.Optimize(q, base));
    const std::vector<IndexDef> cands = candidates.Generate(q, base);
    Configuration prefix = base;
    for (size_t i = 0; i < cands.size(); ++i) {
      Configuration single = base;
      single.Add(cands[i]);
      sweep->Add(*enumerator.Optimize(q, single));
      prefix.Add(cands[i]);
      if (i > 0) sweep->Add(*enumerator.Optimize(q, prefix));
    }
  }
}

PlanSweep SweepKind(const QueryStreamSpec& spec, int extra_batch) {
  auto gen = MakePreparedQueryStream(spec);
  EXPECT_TRUE(gen.ok()) << spec.kind;
  PlanSweep sweep;
  if (!gen.ok()) return sweep;
  BenchmarkDatabase* bdb = (*gen)->database();
  std::vector<QuerySpec> qs = bdb->queries();
  if (extra_batch > 0) {
    auto batch = (*gen)->NextQueryBatch(extra_batch);
    EXPECT_TRUE(batch.ok());
    if (batch.ok()) qs.insert(qs.end(), batch->begin(), batch->end());
  }
  SweepQueries(bdb, qs, &sweep);
  return sweep;
}

/// orders ⋈ lineitem with each side estimated at about one row, on a
/// database where both tables exceed the nested loop's scan-inner bound:
/// there a merge join's sorts cost less than a hash build, so the base
/// plans reach the merge-join builder that no workload query does.
std::vector<QuerySpec> MergeJoinQueries(const Database& d) {
  const int ord = d.FindTable("orders");
  const int li = d.FindTable("lineitem");
  std::vector<QuerySpec> qs;
  for (int max_qty = 3; max_qty <= 5; ++max_qty) {
    QuerySpec q;
    q.name = "merge_join#" + std::to_string(max_qty);
    q.tables = {ord, li};
    q.predicates = {
        PredEq(ord, Col(d, ord, "o_orderkey"), Value::Int(5)),
        PredEq(li, Col(d, li, "l_partkey"), Value::Int(7)),
        PredBetween(li, Col(d, li, "l_quantity"), Value::Int(1),
                    Value::Int(max_qty))};
    q.joins = {Join(ord, Col(d, ord, "o_orderkey"), li,
                    Col(d, li, "l_orderkey"))};
    q.select_columns = {ColumnRef{li, Col(d, li, "l_extendedprice")}};
    qs.push_back(q);
  }
  return qs;
}

TEST(GoldenPlanTest, SweepHashesAndOperatorCoverage) {
  struct Family {
    std::string name;
    PlanSweep sweep;
    uint64_t want;
  };
  std::vector<Family> families = {
      {"tpch", SweepKind({.kind = "tpch"}, 0), 0x8bd917c05a4d8ae4ull},
      {"tpcds", SweepKind({.kind = "tpcds"}, 0), 0xd632326ec0be96e9ull},
      {"customer6", SweepKind({.kind = "customer6"}, 0),
       0xdb294e962ebe8134ull},
      {"customer11", SweepKind({.kind = "customer11"}, 0),
       0xa30f88468e8da00cull},
      {"tpch_sf", SweepKind({.kind = "tpch_sf", .sf = 0.01}, 0),
       0xf6f655589d0f4535ull},
      {"synthetic", SweepKind({.kind = "synthetic"}, 16),
       0x66662391851f8b23ull},
  };
  // tpcds with a columnstore C0 on its three fact tables.
  auto cs = BuildTpcdsLike("tpcds_cs", 1, 0.8, /*with_columnstore=*/true, 42);
  families.push_back({"tpcds_columnstore", PlanSweep(), 0x29327466be38c5ull});
  SweepQueries(cs.get(), cs->queries(), &families.back().sweep);
  // Hand-built merge-join queries on tpch at scale 3.
  auto tpch3 = BuildTpchLike("tpch3", 3, 0.9, 42);
  families.push_back(
      {"tpch_merge_join", PlanSweep(), 0x63142f75ec3d5e79ull});
  SweepQueries(tpch3.get(), MergeJoinQueries(*tpch3->db()),
               &families.back().sweep);

  std::set<PhysOp> ops;
  std::set<PhysOp> nlj_inners;
  bool parallel = false;
  for (const Family& f : families) {
    EXPECT_EQ(f.sweep.hash, f.want)
        << f.name << ": got 0x" << std::hex << f.sweep.hash << std::dec
        << " over " << f.sweep.plans << " plans";
    ops.insert(f.sweep.ops.begin(), f.sweep.ops.end());
    nlj_inners.insert(f.sweep.nlj_inners.begin(), f.sweep.nlj_inners.end());
    parallel = parallel || f.sweep.parallel;
  }
  // The pin covers every builder: each operator appears somewhere in the
  // sweep, so does every nested-loop inner shape (seek, seek + key lookup,
  // seek + key lookup + filter, tiny-table scan), and so does a parallel
  // plan.
  for (int i = 0; i < kNumPhysOps; ++i) {
    EXPECT_EQ(ops.count(static_cast<PhysOp>(i)), 1u)
        << PhysOpName(static_cast<PhysOp>(i));
  }
  EXPECT_EQ(nlj_inners,
            (std::set<PhysOp>{PhysOp::kTableScan, PhysOp::kIndexSeek,
                              PhysOp::kKeyLookup, PhysOp::kFilter}));
  EXPECT_TRUE(parallel);
}

TEST(QuerySpecTest, TemplateHashIgnoresConstants) {
  auto bdb = BuildTpchLike("qh", 1, 0.5, 20);
  const Database& d = *bdb->db();
  const int ord = d.FindTable("orders");
  QuerySpec a;
  a.tables = {ord};
  a.predicates = {PredEq(ord, Col(d, ord, "o_custkey"), Value::Int(3))};
  QuerySpec b = a;
  b.predicates[0].lo = Value::Int(77);  // Different constant.
  EXPECT_EQ(a.TemplateHash(), b.TemplateHash());
  QuerySpec c = a;
  c.predicates[0].op = CmpOp::kLe;  // Different operator.
  EXPECT_NE(a.TemplateHash(), c.TemplateHash());
}

TEST(QuerySpecTest, ReferencedColumnsCoversAllClauses) {
  auto bdb = BuildTpchLike("rc", 1, 0.5, 21);
  const Database& d = *bdb->db();
  const int ord = d.FindTable("orders");
  const int li = d.FindTable("lineitem");
  QuerySpec q;
  q.tables = {ord, li};
  q.predicates = {PredEq(ord, Col(d, ord, "o_custkey"), Value::Int(1))};
  q.joins = {Join(ord, Col(d, ord, "o_orderkey"), li,
                  Col(d, li, "l_orderkey"))};
  q.group_by = {ColumnRef{ord, Col(d, ord, "o_orderdate")}};
  q.aggregates = {{AggFunc::kSum, ColumnRef{li, Col(d, li, "l_quantity")}}};
  const std::vector<int> ord_cols = q.ReferencedColumns(ord);
  EXPECT_EQ(ord_cols.size(), 3u);  // custkey, orderkey, orderdate.
  const std::vector<int> li_cols = q.ReferencedColumns(li);
  EXPECT_EQ(li_cols.size(), 2u);  // orderkey, quantity.
}

}  // namespace
}  // namespace aimai
