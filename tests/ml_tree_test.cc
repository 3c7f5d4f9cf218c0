// Unit & property tests for the tree learners: the feature binner, CART
// decision tree (classification + regression), Random Forest, gradient
// boosting, and the histogram ("LGBM") variant.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/serialize.h"
#include "ml/decision_tree.h"
#include "ml/gbt.h"
#include "ml/hist_gbt.h"
#include "ml/random_forest.h"

namespace aimai {
namespace {

Dataset Blobs(int classes, size_t n_per_class, uint64_t seed,
              double separation = 5.0) {
  Rng rng(seed);
  Dataset d(2);
  for (int c = 0; c < classes; ++c) {
    const double cx = separation * (c % 2);
    const double cy = separation * (c / 2);
    for (size_t i = 0; i < n_per_class; ++i) {
      d.Add({cx + rng.Gaussian(0, 0.8), cy + rng.Gaussian(0, 0.8)}, c);
    }
  }
  return d;
}

double Accuracy(const Classifier& model, const Dataset& test) {
  int correct = 0;
  for (size_t i = 0; i < test.n(); ++i) {
    if (model.Predict(test.Row(i)) == test.Label(i)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(test.n());
}

TEST(FeatureBinnerTest, BinsAreMonotone) {
  Rng rng(1);
  Dataset d(1);
  for (int i = 0; i < 1000; ++i) {
    d.Add({rng.Uniform(0, 100)}, 0);
  }
  std::vector<size_t> rows(d.n());
  for (size_t i = 0; i < d.n(); ++i) rows[i] = i;
  FeatureBinner binner;
  binner.Fit(d, rows, &rng);
  EXPECT_GT(binner.NumBins(0), 30);
  uint8_t prev = 0;
  for (double v = 0; v <= 100; v += 0.5) {
    const uint8_t b = binner.BinOf(0, v);
    EXPECT_GE(b, prev);
    prev = b;
  }
  // Values <= edge land left of the split threshold.
  const double edge = binner.EdgeValue(0, 5);
  EXPECT_LE(binner.BinOf(0, edge), 5);
  EXPECT_GT(binner.BinOf(0, edge + 1.0), 5);
}

TEST(FeatureBinnerTest, ConstantFeatureSingleBin) {
  Rng rng(2);
  Dataset d(1);
  for (int i = 0; i < 100; ++i) d.Add({7.0}, 0);
  std::vector<size_t> rows(d.n());
  for (size_t i = 0; i < d.n(); ++i) rows[i] = i;
  FeatureBinner binner;
  binner.Fit(d, rows, &rng);
  EXPECT_LE(binner.NumBins(0), 2);
}

TEST(FeatureBinnerTest, ColumnMajorMatrixMatchesBinOf) {
  // Columns: continuous, ties on a few integers (values equal to edges),
  // constant, and one whose largest values sit above the last edge.
  Rng rng(3);
  Dataset d(4);
  for (int i = 0; i < 700; ++i) {
    d.Add({rng.Uniform(0, 1), static_cast<double>(rng.Index(4)), 7.0,
           i % 50 == 1 ? 1e6 + i : rng.Gaussian(0, 1)},
          0);
  }
  std::vector<size_t> sample;
  for (size_t i = 0; i < d.n(); i += 2) sample.push_back(i);
  FeatureBinner binner;
  binner.Fit(d, sample, &rng);
  ASSERT_EQ(binner.num_rows(), d.n());
  ASSERT_EQ(binner.num_features(), d.d());
  EXPECT_EQ(binner.NumBins(2), 2);
  for (size_t j = 0; j < d.d(); ++j) {
    const uint8_t* col = binner.Column(j);
    for (size_t i = 0; i < d.n(); ++i) {
      ASSERT_EQ(col[i], binner.BinOf(j, d.At(i, j))) << "row " << i
                                                     << " feature " << j;
    }
  }
  // A value equal to an edge takes that edge's bin; the outliers (odd
  // rows, outside the sample) lie past the last edge and take the top bin.
  const double edge = binner.EdgeValue(1, 0);
  bool saw_edge = false, saw_top = false;
  for (size_t i = 0; i < d.n(); ++i) {
    if (d.At(i, 1) == edge) {
      EXPECT_EQ(binner.Column(1)[i], 0);
      saw_edge = true;
    }
    if (d.At(i, 3) > 1e5) {
      EXPECT_GT(d.At(i, 3), binner.EdgeValue(3, binner.NumBins(3) - 2));
      EXPECT_EQ(binner.Column(3)[i], binner.NumBins(3) - 1);
      saw_top = true;
    }
  }
  EXPECT_TRUE(saw_edge);
  EXPECT_TRUE(saw_top);
}

TEST(DecisionTreeTest, FitsAxisAlignedRule) {
  // Label = x > 10.
  Rng rng(3);
  Dataset d(1);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.Uniform(0, 20);
    d.Add({x}, x > 10 ? 1 : 0);
  }
  std::vector<size_t> rows(d.n());
  for (size_t i = 0; i < d.n(); ++i) rows[i] = i;
  DecisionTree tree;
  tree.FitClassification(d, rows, 2, nullptr);
  int correct = 0;
  for (double x = 0.25; x < 20; x += 0.5) {
    const double q[1] = {x};
    const std::vector<double>& dist = tree.LeafDistribution(q);
    const int pred = dist[1] > dist[0] ? 1 : 0;
    if (pred == (x > 10 ? 1 : 0)) ++correct;
  }
  EXPECT_GE(correct, 38);  // Of 40 probes; bin granularity at the border.
}

TEST(DecisionTreeTest, RegressionFitsStepFunction) {
  Rng rng(4);
  Dataset d(1);
  std::vector<double> targets;
  for (int i = 0; i < 800; ++i) {
    const double x = rng.Uniform(0, 10);
    d.Add({x}, -1);
    targets.push_back(x < 5 ? 2.0 : 8.0);
  }
  std::vector<size_t> rows(d.n());
  for (size_t i = 0; i < d.n(); ++i) rows[i] = i;
  DecisionTree tree;
  tree.FitRegression(d, rows, targets, nullptr);
  const double lo[1] = {2.0};
  const double hi[1] = {8.0};
  EXPECT_NEAR(tree.PredictValue(lo), 2.0, 0.3);
  EXPECT_NEAR(tree.PredictValue(hi), 8.0, 0.3);
}

TEST(DecisionTreeTest, MinSamplesLeafLimitsGrowth) {
  Rng rng(5);
  Dataset d(1);
  for (int i = 0; i < 200; ++i) d.Add({rng.Uniform(0, 1)}, i % 2);
  std::vector<size_t> rows(d.n());
  for (size_t i = 0; i < d.n(); ++i) rows[i] = i;
  DecisionTree::Options big_leaf;
  big_leaf.min_samples_leaf = 100;
  DecisionTree tree(big_leaf);
  tree.FitClassification(d, rows, 2, nullptr);
  EXPECT_LE(tree.num_nodes(), 3u);
}

TEST(RandomForestTest, MulticlassBlobs) {
  Dataset train = Blobs(3, 150, 6);
  Dataset test = Blobs(3, 80, 7);
  RandomForest::Options o;
  o.num_trees = 30;
  RandomForest rf(o);
  rf.Fit(train);
  EXPECT_EQ(rf.num_trees(), 30u);
  EXPECT_GT(Accuracy(rf, test), 0.95);
}

TEST(RandomForestTest, ProbabilitiesCalibratedOnBoundary) {
  Dataset train = Blobs(2, 300, 8, /*separation=*/3.0);
  RandomForest::Options o;
  o.num_trees = 40;
  RandomForest rf(o);
  rf.Fit(train);
  // Deep in class 0: confident; mid-point: uncertain.
  const double deep[2] = {-1.0, 0.0};
  const double mid[2] = {1.5, 0.0};
  EXPECT_LT(rf.Uncertainty(deep), 0.25);
  EXPECT_GT(rf.Uncertainty(mid), rf.Uncertainty(deep));
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  Dataset train = Blobs(2, 100, 9);
  RandomForest::Options o;
  o.num_trees = 10;
  o.seed = 1234;
  RandomForest a(o), b(o);
  a.Fit(train);
  b.Fit(train);
  Dataset test = Blobs(2, 50, 10);
  for (size_t i = 0; i < test.n(); ++i) {
    EXPECT_EQ(a.PredictProba(test.Row(i)), b.PredictProba(test.Row(i)));
  }
}

TEST(RandomForestRegressorTest, FitsLinearFunction) {
  Rng rng(11);
  Dataset train(2);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.Uniform(0, 10);
    const double y = rng.Uniform(0, 10);
    train.Add({x, y}, -1, 3 * x - y);
  }
  RandomForestRegressor::Options o;
  o.num_trees = 40;
  RandomForestRegressor rf(o);
  rf.Fit(train);
  double err = 0;
  int n = 0;
  for (double x = 1; x < 9; x += 1) {
    for (double y = 1; y < 9; y += 1) {
      const double q[2] = {x, y};
      err += std::abs(rf.Predict(q) - (3 * x - y));
      ++n;
    }
  }
  EXPECT_LT(err / n, 1.2);
}

TEST(GbtTest, MulticlassBlobs) {
  Dataset train = Blobs(3, 150, 12);
  Dataset test = Blobs(3, 80, 13);
  GradientBoostedTrees::Options o;
  o.num_rounds = 25;
  GradientBoostedTrees gbt(o);
  gbt.Fit(train);
  EXPECT_GT(Accuracy(gbt, test), 0.95);
}

TEST(GbtRegressorTest, FitsQuadratic) {
  Rng rng(14);
  Dataset train(1);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.Uniform(-3, 3);
    train.Add({x}, -1, x * x);
  }
  GradientBoostedTreesRegressor::Options o;
  o.num_rounds = 60;
  GradientBoostedTreesRegressor gbt(o);
  gbt.Fit(train);
  for (double x = -2.5; x <= 2.5; x += 0.5) {
    const double q[1] = {x};
    EXPECT_NEAR(gbt.Predict(q), x * x, 0.7) << "x=" << x;
  }
}

TEST(HistGbtTest, MulticlassBlobs) {
  Dataset train = Blobs(3, 150, 15);
  Dataset test = Blobs(3, 80, 16);
  HistGradientBoosting::Options o;
  o.num_rounds = 30;
  HistGradientBoosting lgbm(o);
  lgbm.Fit(train);
  EXPECT_GT(Accuracy(lgbm, test), 0.95);
}

TEST(HistGbtTest, LeafCapBoundsTreeSize) {
  Dataset train = Blobs(2, 400, 17, /*separation=*/1.0);  // Overlapping.
  HistGradientBoosting::Options o;
  o.num_rounds = 5;
  o.max_leaves = 4;
  HistGradientBoosting lgbm(o);
  lgbm.Fit(train);
  // Sanity: the model still predicts both classes somewhere.
  int preds[2] = {0, 0};
  for (size_t i = 0; i < train.n(); ++i) {
    preds[lgbm.Predict(train.Row(i))]++;
  }
  EXPECT_GT(preds[0], 0);
  EXPECT_GT(preds[1], 0);
}

// Golden models: every tree learner's Save() bytes, hashed, must equal
// hashes recorded from learners that re-binned each tree's sample, so the
// shared bin matrix cannot move one bit of a model. The datasets mix
// continuous, tied (values landing exactly on bin edges), constant and
// heavy-tailed columns; the 5000-row one exceeds the binner's 4096-row
// sample, so its sampling draw counts.
Dataset GoldenData(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset d(10);
  std::vector<double> x(10);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < 6; ++j) x[j] = rng.Uniform(-1, 1);
    x[6] = static_cast<double>(rng.Index(5));
    x[7] = 3.0;
    x[8] = rng.Gaussian(0, 2);
    x[9] = std::exp(rng.Uniform(0, 6));
    int label = x[0] + x[1] > 0.2 ? 1 : (x[6] >= 3 ? 2 : 0);
    if (rng.Uniform(0, 1) < 0.1) label = static_cast<int>(rng.Index(3));
    const double target =
        2 * x[0] - x[2] * x[3] + 0.5 * x[6] + std::log(x[9]) +
        rng.Gaussian(0, 0.1);
    d.Add(x, label, target);
  }
  return d;
}

template <typename Model>
uint64_t SavedHash(const Model& model) {
  std::ostringstream out;
  TokenWriter w(&out);
  model.Save(&w);
  return Fnv1a64(out.str());
}

void ExpectHash(uint64_t got, uint64_t want) {
  EXPECT_EQ(got, want) << "got 0x" << std::hex << got;
}

TEST(GoldenModelTest, RandomForestSampledBinner) {
  RandomForest::Options o;
  o.num_trees = 12;
  RandomForest rf(o);
  rf.Fit(GoldenData(5000, 31));
  ExpectHash(SavedHash(rf), 0x419afa97b2de393bull);
}

TEST(GoldenModelTest, RandomForestRegressor) {
  RandomForestRegressor::Options o;
  o.num_trees = 12;
  o.bootstrap_fraction = 0.7;
  RandomForestRegressor rf(o);
  rf.Fit(GoldenData(700, 32));
  ExpectHash(SavedHash(rf), 0x20768f5fe45c75a2ull);
}

TEST(GoldenModelTest, GradientBoostedTreesSampledBinner) {
  GradientBoostedTrees::Options o;
  o.num_rounds = 6;
  GradientBoostedTrees gbt(o);
  gbt.Fit(GoldenData(5000, 33));
  ExpectHash(SavedHash(gbt), 0x236958722ba40e13ull);
}

TEST(GoldenModelTest, GradientBoostedTreesRegressor) {
  GradientBoostedTreesRegressor::Options o;
  o.num_rounds = 20;
  GradientBoostedTreesRegressor gbt(o);
  gbt.Fit(GoldenData(900, 34));
  ExpectHash(SavedHash(gbt), 0x7ce63415ecbc6e9dull);
}

TEST(GoldenModelTest, HistGradientBoostingSampledBinner) {
  HistGradientBoosting::Options o;
  o.num_rounds = 5;
  HistGradientBoosting lgbm(o);
  lgbm.Fit(GoldenData(5000, 35));
  ExpectHash(SavedHash(lgbm), 0x60b7de69aed95d29ull);
}

TEST(GoldenModelTest, StandaloneTreesOnRowSubset) {
  const Dataset d = GoldenData(600, 36);
  std::vector<size_t> rows;
  for (size_t i = 0; i < d.n(); i += 3) rows.push_back(i);
  rows.push_back(0);  // A duplicate, as a bootstrap sample would have.
  DecisionTree::Options o;
  o.feature_fraction = 0.5;
  DecisionTree cls(o);
  cls.FitClassification(d, rows, 3, nullptr);
  ExpectHash(SavedHash(cls), 0x67e18b9c289bec50ull);
  DecisionTree reg(o);
  reg.FitRegression(d, rows, d.targets(), nullptr);
  ExpectHash(SavedHash(reg), 0xe0c2f43a57eb579full);
}

// Property sweep: all tree ensembles beat the majority-class baseline on
// noisy data across seeds.
class EnsembleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnsembleProperty, BeatsMajorityOnNoisyBlobs) {
  const uint64_t seed = GetParam();
  Dataset train = Blobs(2, 200, seed, /*separation=*/2.0);
  Dataset test = Blobs(2, 100, seed + 1000, /*separation=*/2.0);

  RandomForest::Options ro;
  ro.num_trees = 20;
  ro.seed = seed;
  RandomForest rf(ro);
  rf.Fit(train);

  GradientBoostedTrees::Options go;
  go.num_rounds = 15;
  go.seed = seed;
  GradientBoostedTrees gbt(go);
  gbt.Fit(train);

  HistGradientBoosting::Options ho;
  ho.num_rounds = 15;
  ho.seed = seed;
  HistGradientBoosting lgbm(ho);
  lgbm.Fit(train);

  // Majority baseline accuracy = 0.5 on balanced blobs.
  EXPECT_GT(Accuracy(rf, test), 0.8);
  EXPECT_GT(Accuracy(gbt, test), 0.8);
  EXPECT_GT(Accuracy(lgbm, test), 0.8);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EnsembleProperty,
                         ::testing::Values(21, 22, 23, 24));

}  // namespace
}  // namespace aimai
