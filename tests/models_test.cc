// Unit tests for models/: the labeler, the execution-data repository and
// pair construction, regressor baselines, and the adaptive strategies.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "ml/split.h"
#include "models/adaptive.h"
#include "models/classifier_model.h"
#include "models/regressor_models.h"
#include "workloads/collection.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

TEST(LabelerTest, TernaryThresholds) {
  PairLabeler lab(0.2);
  EXPECT_EQ(lab.Label(100, 130), kRegression);   // +30%.
  EXPECT_EQ(lab.Label(100, 75), kImprovement);   // -25%.
  EXPECT_EQ(lab.Label(100, 110), kUnsure);       // +10%.
  EXPECT_EQ(lab.Label(100, 85), kUnsure);        // -15%.
  EXPECT_EQ(lab.Label(100, 120), kUnsure);       // Exactly +20%: not >.
}

TEST(LabelerTest, LogRatioTargetClipped) {
  PairLabeler lab(0.2);
  EXPECT_NEAR(lab.LogRatioTarget(10, 100), 1.0, 1e-12);
  EXPECT_NEAR(lab.LogRatioTarget(100, 10), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(lab.LogRatioTarget(1, 1e9), 2.0);   // Clipped.
  EXPECT_DOUBLE_EQ(lab.LogRatioTarget(1e9, 1), -2.0);  // Clipped.
}

TEST(LabelerTest, LabelFromLogRatioConsistent) {
  PairLabeler lab(0.2);
  for (double c2 : {50.0, 85.0, 110.0, 121.0, 400.0}) {
    EXPECT_EQ(lab.LabelFromLogRatio(std::log10(c2 / 100.0)),
              lab.Label(100.0, c2))
        << c2;
  }
}

class RepositoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bdb_ = BuildTpchLike("repo_t", 1, 0.9, 51);
    CollectionOptions copts;
    copts.configs_per_query = 5;
    CollectExecutionData(bdb_.get(), 0, copts, &repo_);
  }
  std::unique_ptr<BenchmarkDatabase> bdb_;
  ExecutionDataRepository repo_;
};

TEST_F(RepositoryTest, PairsAreWithinQueryGroups) {
  Rng rng(1);
  const auto pairs = repo_.MakePairs(100, &rng);
  EXPECT_GT(pairs.size(), 50u);
  for (const PlanPairRef& p : pairs) {
    EXPECT_NE(p.a, p.b);
    EXPECT_EQ(repo_.QueryGroupOf(p.a), repo_.QueryGroupOf(p.b));
    EXPECT_EQ(repo_.plan(p.a).query_name, repo_.plan(p.b).query_name);
  }
}

TEST_F(RepositoryTest, PairCapIsRespected) {
  Rng rng(2);
  const auto pairs = repo_.MakePairs(4, &rng);
  std::map<int, int> per_group;
  for (const PlanPairRef& p : pairs) per_group[repo_.QueryGroupOf(p.a)]++;
  for (const auto& [g, n] : per_group) EXPECT_LE(n, 4);
}

TEST_F(RepositoryTest, StatsAreConsistent) {
  const auto stats = repo_.Stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].num_plans, static_cast<int>(repo_.num_plans()));
  EXPECT_GT(stats[0].num_queries, 10);
  EXPECT_GE(stats[0].max_plans_per_query, 2);
}

TEST_F(RepositoryTest, DatasetBuilderLabelsMatchCosts) {
  Rng rng(3);
  const auto pairs = repo_.MakePairs(30, &rng);
  PairFeaturizer fz({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                    PairCombine::kPairDiffNormalized);
  PairLabeler lab(0.2);
  PairDatasetBuilder builder(&repo_, fz, lab);
  const Dataset d = builder.Build(pairs);
  ASSERT_EQ(d.n(), pairs.size());
  for (size_t i = 0; i < d.n(); ++i) {
    const ExecutedPlan& a = repo_.plan(pairs[i].a);
    const ExecutedPlan& b = repo_.plan(pairs[i].b);
    EXPECT_EQ(d.Label(i), lab.Label(a.exec_cost, b.exec_cost));
    EXPECT_DOUBLE_EQ(d.Target(i), lab.LogRatioTarget(a.exec_cost,
                                                     b.exec_cost));
    EXPECT_EQ(builder.Features(pairs[i]),
              std::vector<double>(d.Row(i), d.Row(i) + d.d()));
  }
}

TEST_F(RepositoryTest, RegressorBaselinesBeatChance) {
  Rng rng(4);
  const auto pairs = repo_.MakePairs(40, &rng);
  PairLabeler lab(0.2);
  std::vector<int> plan_ids(repo_.num_plans());
  for (size_t i = 0; i < repo_.num_plans(); ++i) {
    plan_ids[i] = static_cast<int>(i);
  }

  OperatorCostModel op(lab, 1);
  op.Fit(repo_, plan_ids);
  PlanCostRegressorModel plan_model(
      {Channel::kEstNodeCost, Channel::kLeafBytesWeighted}, lab, 2);
  plan_model.Fit(repo_, plan_ids);
  PairRatioRegressorModel ratio(
      PairFeaturizer({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                     PairCombine::kPairDiffRatio),
      lab, 3);
  ratio.Fit(repo_, pairs);

  // In-sample ternary accuracy must clear the majority baseline.
  int majority[3] = {0, 0, 0};
  int correct_op = 0, correct_plan = 0, correct_ratio = 0;
  for (const PlanPairRef& p : pairs) {
    const ExecutedPlan& a = repo_.plan(p.a);
    const ExecutedPlan& b = repo_.plan(p.b);
    const int truth = lab.Label(a.exec_cost, b.exec_cost);
    majority[truth]++;
    correct_op += op.PredictPairLabel(a, b) == truth;
    correct_plan += plan_model.PredictPairLabel(a, b) == truth;
    correct_ratio += ratio.PredictPairLabel(a, b) == truth;
  }
  const int baseline = std::max({majority[0], majority[1], majority[2]});
  EXPECT_GT(correct_plan, baseline);
  EXPECT_GT(correct_ratio, baseline);
  EXPECT_GT(correct_op, baseline / 2);  // The weakest model in the paper.

  // Predicted plan costs are positive and finite.
  for (const PlanPairRef& p : pairs) {
    const double c = op.PredictPlanCost(*repo_.plan(p.a).plan);
    EXPECT_GE(c, 0);
    EXPECT_TRUE(std::isfinite(c));
    EXPECT_GE(plan_model.PredictPlanCost(repo_.plan(p.a)), 0);
  }
}

TEST(ClassifierModelTest, FactoryProducesAllKinds) {
  const PairFeaturizer fz({Channel::kEstNodeCost},
                          PairCombine::kPairDiffNormalized);
  for (ModelKind kind :
       {ModelKind::kLogisticRegression, ModelKind::kRandomForest,
        ModelKind::kGradientBoostedTrees, ModelKind::kLightGbm,
        ModelKind::kDnn, ModelKind::kHybridDnn}) {
    EXPECT_NE(MakeClassifier(kind, fz, 1), nullptr) << ModelKindName(kind);
  }
}

TEST(ClassifierModelTest, GroupsCoverAllChannelPositions) {
  const PairFeaturizer fz(
      {Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
      PairCombine::kPairDiffNormalized);
  const auto groups = GroupsForFeaturizer(fz);
  ASSERT_EQ(groups.size(), static_cast<size_t>(kOperatorKeySpace));
  std::set<int> covered;
  for (const auto& g : groups) {
    EXPECT_EQ(g.size(), 2u);  // One slot per channel.
    covered.insert(g.begin(), g.end());
  }
  EXPECT_EQ(covered.size(), 2u * kOperatorKeySpace);
}

// Adaptive strategies on synthetic drift: the offline model learned the
// WRONG boundary for the local distribution; local data is scarce.
class AdaptiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(71);
    // Offline distribution: boundary at x=0.
    Dataset offline(2);
    for (int i = 0; i < 800; ++i) {
      const double x = rng.Uniform(-4, 4);
      offline.Add({x, rng.Uniform(-1, 1)}, x > 0 ? 1 : 0);
    }
    offline_model_ = std::make_shared<RandomForest>();
    offline_model_->Fit(offline);

    // Local distribution: boundary at x=2 (shifted).
    for (int i = 0; i < 60; ++i) {
      const double x = rng.Uniform(-4, 4);
      local_.Add({x, rng.Uniform(-1, 1)}, x > 2 ? 1 : 0);
    }
    for (int i = 0; i < 400; ++i) {
      const double x = rng.Uniform(-4, 4);
      test_.Add({x, rng.Uniform(-1, 1)}, x > 2 ? 1 : 0);
    }
  }

  double Score(const AdaptiveStrategy& s) {
    int correct = 0;
    for (size_t i = 0; i < test_.n(); ++i) {
      if (s.Predict(test_.Row(i)) == test_.Label(i)) ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(test_.n());
  }

  std::shared_ptr<RandomForest> offline_model_;
  Dataset local_{2};
  Dataset test_{2};
};

TEST_F(AdaptiveTest, LocalBeatsOfflineUnderDrift) {
  OfflineStrategy off(offline_model_);
  LocalStrategy local(local_, 1);
  EXPECT_GT(Score(local), Score(off) + 0.05);
}

TEST_F(AdaptiveTest, CombinersAtLeastMatchOffline) {
  OfflineStrategy off(offline_model_);
  UncertaintyStrategy unc(offline_model_, local_, 2);
  NearestNeighborStrategy nn(offline_model_, local_, 3,
                             /*distance_threshold=*/0.2);
  MetaModelStrategy meta(offline_model_, local_, 4);
  const double off_score = Score(off);
  EXPECT_GE(Score(unc), off_score - 0.02);
  EXPECT_GE(Score(nn), off_score - 0.02);
  EXPECT_GT(Score(meta), off_score);
}

// Each strategy's argmax equals its old Predict rule, written inline over
// the inner models. local_ has no kUnsure rows, so every inner model
// answers through a zero-padded probability row.
TEST_F(AdaptiveTest, PredictMatchesOldRuleArgmax) {
  constexpr double kThreshold = 0.2;
  const LocalStrategy local(local_, 7);
  const UncertaintyStrategy unc(offline_model_, local_, 7);
  const NearestNeighborStrategy nn(offline_model_, local_, 7, kThreshold);
  const MetaModelStrategy meta(offline_model_, local_, 8);
  // Three rows are too few for stacking: Meta falls back to its forest.
  const MetaModelStrategy small_meta(offline_model_, local_.Subset({0, 1, 2}),
                                     9);
  const Classifier& forest = *local.local_model();
  ASSERT_EQ(forest.num_classes(), 2);
  ASSERT_EQ(local.num_classes(), kNumPairLabels);
  ASSERT_NE(meta.meta_model(), nullptr);
  ASSERT_LT(meta.meta_model()->num_classes(), kNumPairLabels);
  ASSERT_EQ(small_meta.meta_model(), nullptr);
  KnnIndex knn;
  knn.Fit(local_);

  int near = 0;
  for (size_t i = 0; i < test_.n(); ++i) {
    const double* x = test_.Row(i);
    EXPECT_EQ(local.PredictProba(x)[kUnsure], 0.0);
    EXPECT_EQ(local.Predict(x), forest.Predict(x));
    const bool local_wins =
        forest.Uncertainty(x) <= offline_model_->Uncertainty(x);
    EXPECT_EQ(unc.Predict(x), local_wins ? forest.Predict(x)
                                         : offline_model_->Predict(x));
    const bool is_near = knn.NearestDistance(x) <= kThreshold;
    near += is_near ? 1 : 0;
    EXPECT_EQ(nn.Predict(x), is_near ? forest.Predict(x)
                                     : offline_model_->Predict(x));
    EXPECT_EQ(meta.Predict(x),
              meta.meta_model()->Predict(meta.MetaFeatures(x).data()));
    EXPECT_EQ(small_meta.Predict(x), small_meta.local_model()->Predict(x));
  }
  // Both NearestNeighbor branches were exercised.
  EXPECT_GT(near, 0);
  EXPECT_LT(near, static_cast<int>(test_.n()));
}

TEST_F(AdaptiveTest, StrategiesExposeNames) {
  OfflineStrategy off(offline_model_);
  LocalStrategy local(local_, 5);
  MetaModelStrategy meta(offline_model_, local_, 6);
  EXPECT_STREQ(off.name(), "Offline");
  EXPECT_STREQ(local.name(), "Local");
  EXPECT_STREQ(meta.name(), "Meta");
}

TEST(HybridDnnTest, TrainsAndTransfers) {
  Rng rng(81);
  Dataset train(2);
  for (int i = 0; i < 400; ++i) {
    const double x = rng.Uniform(-2, 2);
    const double y = rng.Uniform(-2, 2);
    train.Add({x, y}, x * y > 0 ? 1 : 0);
  }
  NeuralNetClassifier::Options dnn;
  dnn.architecture = NeuralNetClassifier::Architecture::kFullyConnected;
  dnn.fc_layers = 3;
  dnn.fc_units = 12;
  dnn.epochs = 40;
  dnn.seed = 5;
  RandomForest::Options rf;
  rf.num_trees = 20;
  HybridDnnClassifier hybrid(dnn, rf);
  hybrid.Fit(train);

  int correct = 0;
  for (size_t i = 0; i < train.n(); ++i) {
    if (hybrid.Predict(train.Row(i)) == train.Label(i)) ++correct;
  }
  EXPECT_GT(correct, static_cast<int>(train.n() * 80 / 100));

  // Transfer: retrain the forest on flipped labels; the DNN embedding
  // stays, predictions flip.
  Dataset flipped(2);
  for (size_t i = 0; i < train.n(); ++i) {
    std::vector<double> row(train.Row(i), train.Row(i) + 2);
    flipped.Add(row, 1 - train.Label(i));
  }
  hybrid.RetrainForest(flipped);
  int flipped_correct = 0;
  for (size_t i = 0; i < flipped.n(); ++i) {
    if (hybrid.Predict(flipped.Row(i)) == flipped.Label(i)) {
      ++flipped_correct;
    }
  }
  EXPECT_GT(flipped_correct, static_cast<int>(flipped.n() * 80 / 100));
}

}  // namespace
}  // namespace aimai
