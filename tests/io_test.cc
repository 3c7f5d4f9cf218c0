// Unit tests for serialization: token streams, model save/load round
// trips (predictions must be bit-identical), and repository persistence.

#include <gtest/gtest.h>

#include <sstream>

#include "common/serialize.h"
#include "ml/gbt.h"
#include "ml/hist_gbt.h"
#include "ml/logistic_regression.h"
#include "ml/random_forest.h"
#include "models/repository_io.h"
#include "workloads/collection.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

TEST(TokenStreamTest, RoundTripsAllTypes) {
  std::stringstream ss;
  TokenWriter w(&ss);
  w.WriteInt(-42);
  w.WriteUInt(12345678901234ULL);
  w.WriteDouble(3.14159265358979);
  w.WriteDouble(-0.0);
  w.WriteDouble(1e300);
  w.WriteBool(true);
  w.WriteString("hello world \n with spaces");
  w.WriteString("");
  w.WriteTag("marker");
  w.WriteIntVector({1, -2, 3});
  w.WriteDoubleVector({0.5, -0.25});

  TokenReader r(&ss);
  EXPECT_EQ(r.ReadInt(), -42);
  EXPECT_EQ(r.ReadUInt(), 12345678901234ULL);
  EXPECT_DOUBLE_EQ(r.ReadDouble(), 3.14159265358979);
  EXPECT_DOUBLE_EQ(r.ReadDouble(), -0.0);
  EXPECT_DOUBLE_EQ(r.ReadDouble(), 1e300);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_EQ(r.ReadString(), "hello world \n with spaces");
  EXPECT_EQ(r.ReadString(), "");
  r.ExpectTag("marker");
  EXPECT_EQ(r.ReadIntVector(), (std::vector<int>{1, -2, 3}));
  EXPECT_EQ(r.ReadDoubleVector(), (std::vector<double>{0.5, -0.25}));
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

TEST(TokenStreamTest, DoublesRoundTripExactly) {
  Rng rng(1);
  std::stringstream ss;
  TokenWriter w(&ss);
  std::vector<double> values;
  for (int i = 0; i < 200; ++i) {
    values.push_back(rng.Gaussian(0, 1e6));
    w.WriteDouble(values.back());
  }
  TokenReader r(&ss);
  for (double v : values) {
    EXPECT_EQ(r.ReadDouble(), v);  // Bit-exact via hex float.
  }
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

Dataset SyntheticData(uint64_t seed, size_t n = 400) {
  Rng rng(seed);
  Dataset d(4);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(-2, 2);
    const double b = rng.Uniform(-2, 2);
    d.Add({a, b, a * b, rng.Gaussian(0, 1)},
          a * b > 0 ? (a > 1 ? 2 : 1) : 0, a + b);
  }
  return d;
}

template <typename Model>
void ExpectIdenticalPredictions(const Model& original, const Model& loaded,
                                const Dataset& data) {
  for (size_t i = 0; i < data.n(); ++i) {
    EXPECT_EQ(original.PredictProba(data.Row(i)),
              loaded.PredictProba(data.Row(i)))
        << "row " << i;
  }
}

TEST(ModelIoTest, RandomForestRoundTrip) {
  Dataset data = SyntheticData(2);
  RandomForest::Options o;
  o.num_trees = 15;
  RandomForest rf(o);
  rf.Fit(data);
  std::stringstream ss;
  TokenWriter w(&ss);
  rf.Save(&w);
  RandomForest loaded;
  TokenReader r(&ss);
  ASSERT_TRUE(loaded.Load(&r).ok());
  ExpectIdenticalPredictions(rf, loaded, data);
}

TEST(ModelIoTest, RandomForestRegressorRoundTrip) {
  Dataset data = SyntheticData(3);
  RandomForestRegressor::Options o;
  o.num_trees = 10;
  RandomForestRegressor rf(o);
  rf.Fit(data);
  std::stringstream ss;
  TokenWriter w(&ss);
  rf.Save(&w);
  RandomForestRegressor loaded;
  TokenReader r(&ss);
  ASSERT_TRUE(loaded.Load(&r).ok());
  for (size_t i = 0; i < data.n(); ++i) {
    EXPECT_EQ(rf.Predict(data.Row(i)), loaded.Predict(data.Row(i)));
  }
}

TEST(ModelIoTest, LogisticRegressionRoundTrip) {
  Dataset data = SyntheticData(4);
  LogisticRegression lr;
  lr.Fit(data);
  std::stringstream ss;
  TokenWriter w(&ss);
  lr.Save(&w);
  LogisticRegression loaded;
  TokenReader r(&ss);
  ASSERT_TRUE(loaded.Load(&r).ok());
  ExpectIdenticalPredictions(lr, loaded, data);
}

TEST(ModelIoTest, GbtRoundTrip) {
  Dataset data = SyntheticData(5);
  GradientBoostedTrees::Options o;
  o.num_rounds = 8;
  GradientBoostedTrees gbt(o);
  gbt.Fit(data);
  std::stringstream ss;
  TokenWriter w(&ss);
  gbt.Save(&w);
  GradientBoostedTrees loaded;
  TokenReader r(&ss);
  ASSERT_TRUE(loaded.Load(&r).ok());
  ExpectIdenticalPredictions(gbt, loaded, data);
}

TEST(ModelIoTest, GbtRegressorRoundTrip) {
  Dataset data = SyntheticData(6);
  GradientBoostedTreesRegressor::Options o;
  o.num_rounds = 8;
  GradientBoostedTreesRegressor gbt(o);
  gbt.Fit(data);
  std::stringstream ss;
  TokenWriter w(&ss);
  gbt.Save(&w);
  GradientBoostedTreesRegressor loaded;
  TokenReader r(&ss);
  ASSERT_TRUE(loaded.Load(&r).ok());
  for (size_t i = 0; i < data.n(); ++i) {
    EXPECT_EQ(gbt.Predict(data.Row(i)), loaded.Predict(data.Row(i)));
  }
}

TEST(ModelIoTest, HistGbtRoundTrip) {
  Dataset data = SyntheticData(7);
  HistGradientBoosting::Options o;
  o.num_rounds = 8;
  HistGradientBoosting lgbm(o);
  lgbm.Fit(data);
  std::stringstream ss;
  TokenWriter w(&ss);
  lgbm.Save(&w);
  HistGradientBoosting loaded;
  TokenReader r(&ss);
  ASSERT_TRUE(loaded.Load(&r).ok());
  ExpectIdenticalPredictions(lgbm, loaded, data);
}

TEST(RepositoryIoTest, RoundTripPreservesEverything) {
  auto bdb = BuildTpchLike("io_t", 1, 0.9, 91);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 3;
  CollectExecutionData(bdb.get(), 0, copts, &repo);
  ASSERT_GT(repo.num_plans(), 20u);

  std::stringstream ss;
  ASSERT_TRUE(SaveRepository(&ss, repo).ok());
  ExecutionDataRepository loaded;
  RepositoryLoadStats load_stats;
  ASSERT_TRUE(LoadRepository(&ss, &loaded, &load_stats).ok());
  EXPECT_EQ(load_stats.records_skipped, 0u);
  EXPECT_EQ(load_stats.records_loaded, repo.num_plans());

  ASSERT_EQ(loaded.num_plans(), repo.num_plans());
  for (size_t i = 0; i < repo.num_plans(); ++i) {
    const ExecutedPlan& a = repo.plan(static_cast<int>(i));
    const ExecutedPlan& b = loaded.plan(static_cast<int>(i));
    EXPECT_EQ(a.db_name, b.db_name);
    EXPECT_EQ(a.query_name, b.query_name);
    EXPECT_EQ(a.template_hash, b.template_hash);
    EXPECT_EQ(a.config_fp, b.config_fp);
    EXPECT_EQ(a.exec_cost, b.exec_cost);
    EXPECT_EQ(a.est_cost, b.est_cost);
    ASSERT_EQ(a.features.values.size(), b.features.values.size());
    for (size_t c = 0; c < a.features.values.size(); ++c) {
      EXPECT_EQ(a.features.values[c], b.features.values[c]);
    }
    // Plan structure survives: same op at root, same estimates.
    EXPECT_EQ(a.plan->root->op, b.plan->root->op);
    EXPECT_EQ(a.plan->root->stats.est_rows, b.plan->root->stats.est_rows);
    EXPECT_EQ(a.plan->root->stats.actual_cost,
              b.plan->root->stats.actual_cost);
    EXPECT_EQ(a.plan->root->children.size(), b.plan->root->children.size());
    // Group identity reconstructed.
    EXPECT_EQ(loaded.QueryGroupOf(static_cast<int>(i)),
              repo.QueryGroupOf(static_cast<int>(i)));
  }

  // Pairs built from the loaded repository match.
  Rng rng1(5), rng2(5);
  const auto p1 = repo.MakePairs(20, &rng1);
  const auto p2 = loaded.MakePairs(20, &rng2);
  ASSERT_EQ(p1.size(), p2.size());
  for (size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1[i].a, p2[i].a);
    EXPECT_EQ(p1[i].b, p2[i].b);
  }
}

TEST(RepositoryIoTest, PlanNodeDeepFieldsRoundTrip) {
  auto bdb = BuildTpchLike("io_p", 1, 0.9, 92);
  // Find a plan with seek predicates (string constants exercise Value IO).
  const QuerySpec* q = nullptr;
  for (const QuerySpec& query : bdb->queries()) {
    if (!query.predicates.empty() &&
        query.predicates[0].lo.type() == DataType::kString) {
      q = &query;
      break;
    }
  }
  ASSERT_NE(q, nullptr);
  const auto plan = bdb->what_if()->Optimize(*q, {});

  std::stringstream ss;
  TokenWriter w(&ss);
  SavePhysicalPlan(&w, *plan);
  TokenReader r(&ss);
  const auto loaded = LoadPhysicalPlan(&r);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(r.ok());
  EXPECT_EQ((*loaded)->ToString(*bdb->db()), plan->ToString(*bdb->db()));
}

}  // namespace
}  // namespace aimai
