// Unit tests for tuner/: candidate generation, comparators, query-level
// and workload-level search invariants, continuous tuning with reverts.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <map>
#include <set>
#include <sstream>

#include "common/serialize.h"
#include "models/repository_io.h"
#include "obs/obs.h"
#include "robustness/fault_injector.h"
#include "tuner/candidates.h"
#include "tuner/comparator.h"
#include "tuner/continuous_tuner.h"
#include "tuner/query_tuner.h"
#include "tuner/workload_tuner.h"
#include "workloads/collection.h"
#include "workloads/query_helpers.h"
#include "workloads/query_stream.h"
#include "workloads/tpch_like.h"
#include "workloads/tpch_sf.h"

namespace aimai {
namespace {

using workload_internal::Col;
using workload_internal::Join;
using workload_internal::PredBetween;
using workload_internal::PredEq;

class TunerTest : public ::testing::Test {
 protected:
  void SetUp() override { bdb_ = BuildTpchLike("tuner_t", 1, 0.9, 61); }
  std::unique_ptr<BenchmarkDatabase> bdb_;
};

TEST_F(TunerTest, CandidatesCoverPredicateJoinGroupColumns) {
  const Database& d = *bdb_->db();
  const int ord = d.FindTable("orders");
  const int li = d.FindTable("lineitem");
  QuerySpec q;
  q.tables = {ord, li};
  q.predicates = {PredEq(ord, Col(d, ord, "o_custkey"), Value::Int(1)),
                  PredBetween(li, Col(d, li, "l_shipdate"), Value::Int(0),
                              Value::Int(100))};
  q.joins = {Join(ord, Col(d, ord, "o_orderkey"), li,
                  Col(d, li, "l_orderkey"))};
  q.group_by = {ColumnRef{li, Col(d, li, "l_shipmode")}};
  q.aggregates = {{AggFunc::kCount, ColumnRef{}}};

  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  const std::vector<IndexDef> cands = gen.Generate(q, {});
  EXPECT_FALSE(cands.empty());

  auto has_leading = [&cands](int table, int col) {
    for (const IndexDef& def : cands) {
      if (def.table_id == table && !def.key_columns.empty() &&
          def.key_columns[0] == col) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(has_leading(ord, Col(d, ord, "o_custkey")));
  EXPECT_TRUE(has_leading(ord, Col(d, ord, "o_orderkey")));
  EXPECT_TRUE(has_leading(li, Col(d, li, "l_shipdate")));
  EXPECT_TRUE(has_leading(li, Col(d, li, "l_orderkey")));
  EXPECT_TRUE(has_leading(li, Col(d, li, "l_shipmode")));

  // No duplicates; nothing already in the existing configuration.
  std::set<std::string> names;
  for (const IndexDef& def : cands) {
    EXPECT_TRUE(names.insert(def.CanonicalName()).second);
  }
  Configuration existing;
  existing.Add(cands[0]);
  const std::vector<IndexDef> filtered = gen.Generate(q, existing);
  for (const IndexDef& def : filtered) {
    EXPECT_NE(def.CanonicalName(), cands[0].CanonicalName());
  }
}

TEST_F(TunerTest, CandidateCapsRespected) {
  // At most 8 B-tree candidates per table and 24 per query.
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  for (const QuerySpec& q : bdb_->queries()) {
    const std::vector<IndexDef> cands = gen.Generate(q, {});
    EXPECT_LE(cands.size(), 24u) << q.name;
    std::map<int, int> per_table;
    for (const IndexDef& def : cands) {
      EXPECT_FALSE(def.is_columnstore) << q.name;
      EXPECT_LE(++per_table[def.table_id], 8) << q.name;
    }
  }
}

TEST(ComparatorTest, OptimizerComparatorThresholds) {
  PhysicalPlan p1, p2;
  p1.est_total_cost = 100;
  p2.est_total_cost = 90;
  OptimizerComparator plain(0.0, 0.2);
  EXPECT_TRUE(plain.IsImprovement(p1, p2));
  EXPECT_FALSE(plain.IsRegression(p1, p2));
  OptimizerComparator strict(0.2, 0.2);  // OptTr: needs >= 20% improvement.
  EXPECT_FALSE(strict.IsImprovement(p1, p2));
  p2.est_total_cost = 70;
  EXPECT_TRUE(strict.IsImprovement(p1, p2));
  p2.est_total_cost = 125;
  EXPECT_TRUE(plain.IsRegression(p1, p2));
  p2.est_total_cost = 115;
  EXPECT_FALSE(plain.IsRegression(p1, p2));  // Within the 20% band.
}

/// Stand-in model that answers one PairLabel for every pair.
class ConstantLabelClassifier : public Classifier {
 public:
  explicit ConstantLabelClassifier(int label) : label_(label) {
    num_classes_ = kNumPairLabels;
  }
  void Fit(const Dataset&) override {}
  void PredictProbaInto(const double*, double* out) const override {
    for (int c = 0; c < kNumPairLabels; ++c) out[c] = c == label_ ? 1.0 : 0.0;
  }

 private:
  int label_;
};

TEST(ComparatorTest, ModelComparatorUnsureFallsBackToOptimizer) {
  PhysicalPlan p1, p2;
  p1.root = std::make_unique<PlanNode>();
  p2.root = std::make_unique<PlanNode>();
  p1.est_total_cost = 100;
  p2.est_total_cost = 90;

  auto make = [](int label) {
    return ModelComparator(
        std::make_shared<ConstantLabelClassifier>(label),
        PairFeaturizer({Channel::kEstNodeCost},
                       PairCombine::kPairDiffNormalized));
  };
  const ModelComparator says_regress = make(kRegression);
  EXPECT_TRUE(says_regress.IsRegression(p1, p2));
  EXPECT_FALSE(says_regress.IsImprovement(p1, p2));

  const ModelComparator says_improve = make(kImprovement);
  EXPECT_FALSE(says_improve.IsRegression(p1, p2));
  EXPECT_TRUE(says_improve.IsImprovement(p1, p2));

  const ModelComparator says_unsure = make(kUnsure);
  EXPECT_FALSE(says_unsure.IsRegression(p1, p2));
  // Unsure + optimizer estimates cheaper => improvement (fallback).
  EXPECT_TRUE(says_unsure.IsImprovement(p1, p2));
  p2.est_total_cost = 105;
  EXPECT_FALSE(says_unsure.IsImprovement(p1, p2));
}

TEST_F(TunerTest, QueryTunerOnlyImprovesEstimates) {
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  QueryLevelTuner tuner(bdb_->db(), bdb_->what_if(), &gen);
  OptimizerComparator cmp(0.0, 0.2);
  int queries_with_indexes = 0;
  for (const QuerySpec& q : bdb_->queries()) {
    const QueryTuningResult r = tuner.Tune(q, {}, cmp);
    ASSERT_NE(r.base_plan, nullptr);
    ASSERT_NE(r.final_plan, nullptr);
    EXPECT_LE(r.final_plan->est_total_cost,
              r.base_plan->est_total_cost + 1e-9);
    EXPECT_EQ(r.recommended.size(), r.new_indexes.size());
    if (!r.new_indexes.empty()) ++queries_with_indexes;
    EXPECT_LE(r.new_indexes.size(), 5u);
  }
  EXPECT_GT(queries_with_indexes, 5);
}

TEST_F(TunerTest, QueryTunerRespectsStorageBudget) {
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  QueryLevelTuner::Options o;
  o.storage_budget_bytes = 1;  // Nothing fits.
  QueryLevelTuner tuner(bdb_->db(), bdb_->what_if(), &gen, o);
  OptimizerComparator cmp(0.0, 0.2);
  const QueryTuningResult r = tuner.Tune(bdb_->queries()[0], {}, cmp);
  EXPECT_TRUE(r.new_indexes.empty());
}

TEST_F(TunerTest, QueryTunerRespectsIndexCap) {
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  QueryLevelTuner::Options o;
  o.max_new_indexes = 1;
  QueryLevelTuner tuner(bdb_->db(), bdb_->what_if(), &gen, o);
  OptimizerComparator cmp(0.0, 0.2);
  for (const QuerySpec& q : bdb_->queries()) {
    EXPECT_LE(tuner.Tune(q, {}, cmp).new_indexes.size(), 1u);
  }
}

TEST_F(TunerTest, WorkloadTunerEnforcesPerQueryNoRegression) {
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  WorkloadLevelTuner tuner(bdb_->db(), bdb_->what_if(), &gen);
  OptimizerComparator cmp(0.0, 0.2);
  std::vector<WorkloadQuery> wl;
  for (size_t i = 0; i < 5; ++i) {
    wl.push_back(WorkloadQuery{bdb_->queries()[i], 1.0});
  }
  const WorkloadTuningResult r = tuner.Tune(wl, {}, cmp);
  EXPECT_LE(r.final_est_cost, r.base_est_cost + 1e-9);
  ASSERT_EQ(r.final_plans.size(), wl.size());
  for (size_t i = 0; i < wl.size(); ++i) {
    // No query's estimated cost exceeds its base by the threshold.
    EXPECT_FALSE(cmp.IsRegression(*r.base_plans[i], *r.final_plans[i]));
  }
}

TEST_F(TunerTest, ContinuousTunerRevertKeepsCostBounded) {
  TuningEnv env = bdb_->MakeEnv(0);
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  ContinuousTuner::Options o;
  o.iterations = 4;
  o.max_indexes_per_iteration = 2;
  ContinuousTuner tuner(&env, &gen, o);
  ExecutionDataRepository repo;
  auto factory = []() -> std::unique_ptr<CostComparator> {
    return std::make_unique<OptimizerComparator>(0.0, 0.2);
  };
  int adapt_calls = 0;
  for (size_t qi = 0; qi < 5; ++qi) {
    const auto trace =
        tuner.TuneQuery(bdb_->queries()[qi], {}, factory, &repo,
                        [&adapt_calls]() { ++adapt_calls; });
    // After reverts, final cost never exceeds initial by more than the
    // threshold plus measurement noise.
    EXPECT_LE(trace.final_cost, trace.initial_cost * 1.5);
    for (const auto& ir : trace.iterations) {
      EXPECT_GE(ir.iteration, 1);
      EXPECT_LE(ir.iteration, 4);
      EXPECT_GT(ir.measured_cost, 0);
    }
  }
  EXPECT_GT(repo.num_plans(), 5u);  // Passive collection happened.
  EXPECT_GT(adapt_calls, 0);        // Hook invoked per iteration.
}

TEST_F(TunerTest, ContinuousWorkloadTuningProducesTrace) {
  TuningEnv env = bdb_->MakeEnv(0);
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  ContinuousTuner::Options o;
  o.iterations = 2;
  ContinuousTuner tuner(&env, &gen, o);
  std::vector<WorkloadQuery> wl;
  for (size_t i = 2; i < 6; ++i) {
    wl.push_back(WorkloadQuery{bdb_->queries()[i], 1.0});
  }
  auto factory = []() -> std::unique_ptr<CostComparator> {
    return std::make_unique<OptimizerComparator>(0.0, 0.2);
  };
  const auto trace = tuner.TuneWorkload(wl, {}, factory, nullptr, nullptr);
  EXPECT_GT(trace.initial_cost, 0);
  EXPECT_GT(trace.final_cost, 0);
  EXPECT_LE(trace.final_cost, trace.initial_cost * 1.5);
}


// Join graphs the enumerator cannot plan come back from every tuner's
// Status entry point as InvalidArgument instead of aborting inside the
// join search.
class BadJoinGraphTest : public TunerTest {
 protected:
  /// orders x lineitem, joined on the order key.
  QuerySpec Valid() const {
    const Database& d = *bdb_->db();
    const int ord = d.FindTable("orders");
    const int li = d.FindTable("lineitem");
    QuerySpec q;
    q.name = "bad_join";
    q.tables = {ord, li};
    q.joins = {Join(ord, Col(d, ord, "o_orderkey"), li,
                    Col(d, li, "l_orderkey"))};
    q.predicates = {PredEq(ord, Col(d, ord, "o_custkey"), Value::Int(3))};
    return q;
  }

  /// Each bad shape, with the phrase its error names.
  std::vector<std::pair<QuerySpec, std::string>> BadQueries() const {
    const Database& d = *bdb_->db();
    std::vector<std::pair<QuerySpec, std::string>> out;
    QuerySpec disconnected = Valid();
    disconnected.joins.clear();
    out.emplace_back(disconnected, "disconnected join graph");
    QuerySpec duplicate = Valid();
    duplicate.tables.push_back(duplicate.tables[0]);
    out.emplace_back(duplicate, "twice");
    QuerySpec unlisted = Valid();
    const int part = d.FindTable("part");
    unlisted.joins.push_back(Join(unlisted.tables[1],
                                  Col(d, unlisted.tables[1], "l_partkey"),
                                  part, Col(d, part, "p_partkey")));
    out.emplace_back(unlisted, "does not list");
    QuerySpec wide = Valid();
    while (wide.tables.size() <= 10) wide.tables.push_back(wide.tables[0]);
    out.emplace_back(wide, "at most 10");
    return out;
  }

  static void ExpectInvalid(const Status& st, const std::string& phrase) {
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.message();
    EXPECT_NE(st.message().find(phrase), std::string::npos) << st.message();
  }
};

TEST_F(BadJoinGraphTest, QueryTunerTryTuneReturnsInvalidArgument) {
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  QueryLevelTuner tuner(bdb_->db(), bdb_->what_if(), &gen);
  OptimizerComparator cmp(0.0, 0.2);
  ASSERT_TRUE(tuner.TryTune(Valid(), {}, cmp).ok());
  for (const auto& [q, phrase] : BadQueries()) {
    ExpectInvalid(tuner.TryTune(q, {}, cmp).status(), phrase);
  }
}

TEST_F(BadJoinGraphTest, WorkloadTunerTryTuneReturnsInvalidArgument) {
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  WorkloadLevelTuner tuner(bdb_->db(), bdb_->what_if(), &gen);
  OptimizerComparator cmp(0.0, 0.2);
  for (const auto& [q, phrase] : BadQueries()) {
    const std::vector<WorkloadQuery> wl = {{Valid(), 1.0}, {q, 1.0}};
    ExpectInvalid(tuner.TryTune(wl, {}, cmp).status(), phrase);
  }
}

TEST_F(BadJoinGraphTest, ContinuousTunerTryTuneQueryReturnsInvalidArgument) {
  TuningEnv env = bdb_->MakeEnv(0);
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  ContinuousTuner::Options o;
  o.iterations = 1;
  ContinuousTuner tuner(&env, &gen, o);
  auto factory = []() -> std::unique_ptr<CostComparator> {
    return std::make_unique<OptimizerComparator>(0.0, 0.2);
  };
  for (const auto& [q, phrase] : BadQueries()) {
    ExpectInvalid(
        tuner.TryTuneQuery(q, {}, factory, nullptr, nullptr).status(),
        phrase);
  }
}

// Every query of every registered workload kind is one ValidateQuery
// accepts, so the join-graph checks refuse only malformed input.
TEST(ValidateQueryTest, EveryRegistryQueryPasses) {
  for (const char* kind :
       {"tpch", "tpcds", "tpch_sf", "synthetic", "customer1", "customer2",
        "customer3", "customer4", "customer5", "customer6", "customer7",
        "customer8", "customer9", "customer10", "customer11"}) {
    auto gen = MakePreparedQueryStream({.kind = kind});
    ASSERT_TRUE(gen.ok()) << kind;
    BenchmarkDatabase* bdb = (*gen)->database();
    std::vector<QuerySpec> qs = bdb->queries();
    auto batch = (*gen)->NextQueryBatch(32);
    ASSERT_TRUE(batch.ok()) << kind;
    qs.insert(qs.end(), batch->begin(), batch->end());
    for (const QuerySpec& q : qs) {
      const Status st = bdb->what_if()->ValidateQuery(q);
      EXPECT_TRUE(st.ok()) << kind << ": " << st.message();
    }
  }
}

// ------------------------------------------------------ measurement memo

#if !defined(AIMAI_OBS_DISABLED)
class MeasureMemoTest : public TunerTest {
 protected:
  struct Counts {
    int64_t measurements;
    int64_t hits;
    int64_t executed;
  };
  static Counts Now() {
    auto& r = obs::Registry();
    return {r.GetCounter("tuner.measurements")->value(),
            r.GetCounter("tuner.measure.memo_hits")->value(),
            r.GetCounter("exec.plans_executed")->value()};
  }
  static Counts Since(const Counts& c0) {
    const Counts c = Now();
    return {c.measurements - c0.measurements, c.hits - c0.hits,
            c.executed - c0.executed};
  }

  /// A configuration holding one index on a table `query` does not read:
  /// the optimizer's plan is the one it picks with no indexes.
  Configuration Unrelated(const QuerySpec& query) const {
    const Database& d = *bdb_->db();
    for (int t = 0; t < d.num_tables(); ++t) {
      if (std::find(query.tables.begin(), query.tables.end(), t) ==
          query.tables.end()) {
        IndexDef def;
        def.table_id = t;
        def.key_columns = {0};
        Configuration c;
        c.Add(def);
        return c;
      }
    }
    ADD_FAILURE() << "query reads every table";
    return {};
  }

  /// Every execution-written field of `got` equals a direct run of the
  /// same plan, bit for bit.
  void ExpectActualsOfDirectRun(const PhysicalPlan& got) const {
    std::unique_ptr<PhysicalPlan> direct = got.Clone();
    bdb_->executor()->Execute(direct.get());
    bdb_->exec_cost()->ComputeActualCost(direct.get());
    ExpectSameActuals(got, *direct);
  }

  /// Every execution-written field of `got` equals `want`'s, bit for bit,
  /// and every node executed.
  static void ExpectSameActuals(const PhysicalPlan& got,
                                const PhysicalPlan& want) {
    EXPECT_EQ(std::bit_cast<uint64_t>(got.actual_total_cost),
              std::bit_cast<uint64_t>(want.actual_total_cost));
    std::vector<const PlanNode*> a, b;
    got.root->Visit([&a](const PlanNode& n) { a.push_back(&n); });
    want.root->Visit([&b](const PlanNode& n) { b.push_back(&n); });
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      const NodeStats& x = a[i]->stats;
      const NodeStats& y = b[i]->stats;
      EXPECT_EQ(std::bit_cast<uint64_t>(x.actual_rows),
                std::bit_cast<uint64_t>(y.actual_rows));
      EXPECT_EQ(std::bit_cast<uint64_t>(x.actual_executions),
                std::bit_cast<uint64_t>(y.actual_executions));
      EXPECT_EQ(std::bit_cast<uint64_t>(x.actual_access_rows),
                std::bit_cast<uint64_t>(y.actual_access_rows));
      EXPECT_EQ(std::bit_cast<uint64_t>(x.actual_cost),
                std::bit_cast<uint64_t>(y.actual_cost));
      EXPECT_EQ(x.executed, y.executed);
      EXPECT_TRUE(x.executed);
    }
  }
};

TEST_F(MeasureMemoTest, EqualPlansUnderTwoConfigurationsExecuteOnce) {
  TuningEnv env = bdb_->MakeEnv(0);
  const QuerySpec& q = bdb_->queries()[1];
  const Configuration other = Unrelated(q);
  const Counts c0 = Now();
  TuningEnv::Measurement first = env.ExecuteAndMeasure(q, {});
  TuningEnv::Measurement second = env.ExecuteAndMeasure(q, other);
  const Counts d = Since(c0);
  ASSERT_EQ(first.plan->ContentKey(), second.plan->ContentKey());
  EXPECT_EQ(d.measurements, 2);
  EXPECT_EQ(d.hits, 1);
  EXPECT_EQ(d.executed, 1);
  EXPECT_EQ(second.samples_used, env.cost_samples);
  ExpectActualsOfDirectRun(*first.plan);
  ExpectActualsOfDirectRun(*second.plan);
}

TEST_F(MeasureMemoTest, AnotherQueryClearsTheMemo) {
  TuningEnv env = bdb_->MakeEnv(0);
  const QuerySpec& q1 = bdb_->queries()[1];
  const QuerySpec& q2 = bdb_->queries()[2];
  ASSERT_NE(q1.ContentFingerprint(), q2.ContentFingerprint());
  const Counts c0 = Now();
  env.ExecuteAndMeasure(q1, {});
  env.ExecuteAndMeasure(q2, {});
  TuningEnv::Measurement again = env.ExecuteAndMeasure(q1, {});
  const Counts d = Since(c0);
  EXPECT_EQ(d.hits, 0);
  EXPECT_EQ(d.executed, 3);
  ExpectActualsOfDirectRun(*again.plan);
}

TEST_F(MeasureMemoTest, RowModeNeverReusesBatchResults) {
  TuningEnv env = bdb_->MakeEnv(0);
  const QuerySpec& q = bdb_->queries()[1];
  const Counts c0 = Now();
  env.ExecuteAndMeasure(q, {});  // Batch engine.
  env.executor->set_mode(ExecMode::kRow);
  env.ExecuteAndMeasure(q, {});  // Runs on the row engine...
  TuningEnv::Measurement row = env.ExecuteAndMeasure(q, {});  // ...reused.
  ExpectActualsOfDirectRun(*row.plan);
  env.executor->set_mode(ExecMode::kBatch);
  const Counts d = Since(c0);
  EXPECT_EQ(d.hits, 1);
  EXPECT_EQ(d.executed, 3);  // Two measured runs and the direct one.
}

// ---------------------------------------------------------- lazy builds

using MeasureTest = MeasureMemoTest;

bool ReadsIndex(const PhysicalPlan& plan, const IndexDef& def) {
  bool reads = false;
  plan.root->Visit([&](const PlanNode& n) {
    reads |= (n.op == PhysOp::kIndexSeek || n.op == PhysOp::kIndexScan) &&
             n.index.CanonicalName() == def.CanonicalName();
  });
  return reads;
}

TEST_F(MeasureTest, BuildsOnlyTheIndexesItsPlanReads) {
  TuningEnv env = bdb_->MakeEnv(0);
  // The first query whose plan reads a candidate index, and that index.
  CandidateGenerator candidates(bdb_->db(), env.stats);
  const QuerySpec* query = nullptr;
  IndexDef read;
  for (const QuerySpec& q : bdb_->queries()) {
    for (const IndexDef& def : candidates.Generate(q, {})) {
      Configuration c;
      c.Add(def);
      if (ReadsIndex(*env.what_if->Optimize(q, c), def)) {
        query = &q;
        read = def;
        break;
      }
    }
    if (query != nullptr) break;
  }
  ASSERT_NE(query, nullptr);
  // Plus an index on a table the query never reads.
  Configuration config = Unrelated(*query);
  config.Add(read);
  ASSERT_EQ(config.size(), 2u);

  obs::Counter* builds = obs::Registry().GetCounter("index.builds");
  const int64_t builds0 = builds->value();
  ASSERT_EQ(env.indexes->num_built(), 0u);
  TuningEnv::Measurement lazy = env.ExecuteAndMeasure(*query, config);
  ASSERT_TRUE(ReadsIndex(*lazy.plan, read));
  EXPECT_EQ(env.indexes->num_built(), 1u);
  EXPECT_EQ(builds->value() - builds0, 1);

  // The same measurement as with every index materialized up front, on a
  // twin database.
  std::unique_ptr<BenchmarkDatabase> twin =
      BuildTpchLike("tuner_t", 1, 0.9, 61);
  TuningEnv eager_env = twin->MakeEnv(0);
  eager_env.indexes->Materialize(config);
  EXPECT_EQ(eager_env.indexes->num_built(), 2u);
  TuningEnv::Measurement eager = eager_env.ExecuteAndMeasure(*query, config);
  EXPECT_EQ(lazy.plan->ContentKey(), eager.plan->ContentKey());
  EXPECT_EQ(lazy.samples_used, eager.samples_used);
  EXPECT_EQ(std::bit_cast<uint64_t>(lazy.median_cost),
            std::bit_cast<uint64_t>(eager.median_cost));
  ExpectSameActuals(*lazy.plan, *eager.plan);

  // Measuring again, under the unread index alone, and under an
  // include-only variant of the index the plan read builds nothing more.
  const int64_t builds1 = builds->value();
  IndexDef wider = read;
  wider.include_columns.clear();
  const Table& table = bdb_->db()->table(read.table_id);
  for (int c = 0; c < static_cast<int>(table.num_columns()); ++c) {
    if (std::find(read.key_columns.begin(), read.key_columns.end(), c) ==
        read.key_columns.end()) {
      wider.include_columns.push_back(c);
    }
  }
  Configuration covering;
  covering.Add(wider);
  env.ExecuteAndMeasure(*query, config);
  env.ExecuteAndMeasure(*query, Unrelated(*query));
  const Counts c0 = Now();
  TuningEnv::Measurement again = env.ExecuteAndMeasure(*query, covering);
  EXPECT_EQ(Since(c0).executed, 1);
  EXPECT_TRUE(ReadsIndex(*again.plan, wider));
  EXPECT_EQ(env.indexes->num_built(), 1u);
  EXPECT_EQ(builds->value(), builds1);
}
#endif  // !AIMAI_OBS_DISABLED

// ------------------------------------------------------------ golden pins
//
// Hashes of everything the measurement path produces, recorded before the
// per-query measurement memo existed: a memo hit must hand back the very
// actuals an execution would have written, and leave every fault draw,
// retry and noise sample where it was.

void ExpectHash(uint64_t got, uint64_t want) {
  EXPECT_EQ(got, want) << "got 0x" << std::hex << got;
}

std::string RepositoryBytes(const ExecutionDataRepository& repo) {
  std::ostringstream out;
  EXPECT_TRUE(SaveRepository(&out, repo).ok());
  return out.str();
}

/// Raw bytes of a trivially copyable value, appended to `out`.
template <typename T>
void AppendBytes(std::string* out, const T& v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void AppendIterations(
    std::string* out,
    const std::vector<ContinuousTuner::IterationRecord>& iterations) {
  AppendBytes(out, iterations.size());
  for (const ContinuousTuner::IterationRecord& ir : iterations) {
    AppendBytes(out, ir.iteration);
    AppendBytes(out, ir.num_new_indexes);
    AppendBytes(out, ir.measured_cost);
    AppendBytes(out, ir.regressed);
    AppendBytes(out, ir.failed);
    AppendBytes(out, ir.quarantined);
  }
}

void AppendResilience(std::string* out, const ResilienceStats& rs) {
  for (int64_t v :
       {rs.execution_attempts, rs.execution_retries, rs.execution_faults,
        rs.execution_failures, rs.what_if_timeouts, rs.cost_samples_dropped,
        rs.degraded_measurements, rs.failed_iterations, rs.reverts,
        rs.reverts_verified, rs.revert_verification_failures,
        rs.quarantined_recommendations, rs.quarantine_skips}) {
    AppendBytes(out, v);
  }
  AppendBytes(out, rs.total_backoff_ms);
}

TEST(MeasurementGoldenTest, CollectionRepositoryBytes) {
  TpchSfOptions opt;
  opt.sf = 0.005;
  opt.seed = 15;
  auto sf = BuildTpchSf("pin_sf", opt);
  ExecutionDataRepository sf_repo;
  CollectionOptions copts;
  copts.configs_per_query = 8;
  copts.seed = 16;
  CollectExecutionData(sf.get(), 0, copts, &sf_repo);
  EXPECT_GT(sf_repo.num_plans(), 0u);
  ExpectHash(Fnv1a64(RepositoryBytes(sf_repo)), 0xd118f0007beba051ull);

  auto like = BuildTpchLike("pin_like", 1, 0.9, 61);
  ExecutionDataRepository like_repo;
  copts.configs_per_query = 6;
  CollectExecutionData(like.get(), 3, copts, &like_repo);
  EXPECT_GT(like_repo.num_plans(), 0u);
  ExpectHash(Fnv1a64(RepositoryBytes(like_repo)), 0x165ceb07d4844a06ull);
}

// Continuous tuning under an armed FaultInjector: query traces, the
// workload trace, every ResilienceStats counter, the injector's counts,
// the passively collected repository and the noise stream's next draw.
// The two regression thresholds exercise reverts and their re-measurement.
TEST_F(TunerTest, ContinuousTuningUnderFaultsGolden) {
  std::string bytes;
  int64_t reverts = 0;
  for (double threshold : {0.2, -0.5}) {
    TuningEnv env = bdb_->MakeEnv(0);
    FaultInjector faults(1234);
    faults.set_probability(FaultPoint::kQueryExecution, 0.10);
    faults.set_probability(FaultPoint::kWhatIfTimeout, 0.05);
    faults.set_probability(FaultPoint::kCostNoiseSpike, 0.05);
    env.faults = &faults;
    CandidateGenerator gen(bdb_->db(), bdb_->stats());
    ContinuousTuner::Options o;
    o.iterations = 4;
    o.max_indexes_per_iteration = 2;
    o.regression_threshold = threshold;
    ContinuousTuner tuner(&env, &gen, o);
    auto factory = []() -> std::unique_ptr<CostComparator> {
      return std::make_unique<OptimizerComparator>(0.0, 0.2);
    };
    ExecutionDataRepository repo;
    for (size_t qi = 0; qi < 6; ++qi) {
      const auto trace =
          tuner.TuneQuery(bdb_->queries()[qi], {}, factory, &repo, nullptr);
      bytes += trace.query_name + "|" + trace.final_config.Fingerprint();
      AppendBytes(&bytes, trace.initial_cost);
      AppendBytes(&bytes, trace.final_cost);
      AppendBytes(&bytes, trace.regress_final);
      AppendBytes(&bytes, trace.improve_cumulative);
      AppendBytes(&bytes, trace.completed);
      AppendIterations(&bytes, trace.iterations);
    }
    std::vector<WorkloadQuery> wl;
    for (size_t i = 2; i < 6; ++i) {
      wl.push_back(WorkloadQuery{bdb_->queries()[i], 1.0});
    }
    const auto wt = tuner.TuneWorkload(wl, {}, factory, &repo, nullptr);
    bytes += wt.final_config.Fingerprint();
    AppendBytes(&bytes, wt.initial_cost);
    AppendBytes(&bytes, wt.final_cost);
    AppendBytes(&bytes, wt.completed);
    AppendIterations(&bytes, wt.iterations);

    reverts += env.resilience.reverts;
    AppendResilience(&bytes, env.resilience);
    for (FaultPoint p : {FaultPoint::kQueryExecution,
                         FaultPoint::kCostNoiseSpike,
                         FaultPoint::kWhatIfTimeout}) {
      AppendBytes(&bytes, faults.checks(p));
      AppendBytes(&bytes, faults.injected(p));
    }
    bytes += RepositoryBytes(repo);
    AppendBytes(&bytes, env.noise_rng->Uniform());
  }
  EXPECT_GT(reverts, 0);
  ExpectHash(Fnv1a64(bytes), 0x7ad764d88cf4c244ull);
}

}  // namespace
}  // namespace aimai
