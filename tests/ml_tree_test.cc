// Unit & property tests for the tree learners: the feature binner, CART
// decision tree (classification + regression), Random Forest, gradient
// boosting, and the histogram ("LGBM") variant.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "common/serialize.h"
#include "ml/decision_tree.h"
#include "ml/gbt.h"
#include "ml/hist_gbt.h"
#include "ml/logistic_regression.h"
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

// Test-local oracle: the edges as sorting the bare sample values gives
// them. A signed zero keeps the sign std::sort leaves at an edge position.
std::vector<double> OracleEdges(const Dataset& d,
                                const std::vector<size_t>& sample,
                                size_t j) {
  std::vector<double> vals;
  for (size_t i : sample) vals.push_back(d.At(i, j));
  std::sort(vals.begin(), vals.end());
  std::vector<double> e;
  for (int b = 1; b < FeatureBinner::kMaxBins; ++b) {
    const size_t pos = vals.size() * static_cast<size_t>(b) /
                       static_cast<size_t>(FeatureBinner::kMaxBins);
    const double v = vals[std::min(pos, vals.size() - 1)];
    if (e.empty() || v > e.back()) e.push_back(v);
  }
  return e;
}

TEST(FeatureBinnerTest, EdgesAndBinsMatchSortOracle) {
  // Columns: half zeros of both signs, continuous, few integers.
  Rng rng(8);
  Dataset d(3);
  for (int i = 0; i < 900; ++i) {
    const double zero = rng.Index(2) == 0 ? -0.0 : 0.0;
    d.Add({rng.Index(2) == 0 ? zero : rng.Uniform(-1, 1), rng.Gaussian(0, 1),
           static_cast<double>(rng.Index(5))},
          0);
  }
  std::vector<size_t> every(d.n());
  for (size_t i = 0; i < d.n(); ++i) every[i] = i;
  std::vector<size_t> draws;
  for (size_t i = 0; i < d.n(); ++i) draws.push_back(rng.Index(d.n()));
  for (const std::vector<size_t>* sample : {&every, &draws}) {
    FeatureBinner binner;
    binner.Fit(d, *sample, &rng);
    for (size_t j = 0; j < d.d(); ++j) {
      const std::vector<double> want = OracleEdges(d, *sample, j);
      ASSERT_EQ(static_cast<size_t>(binner.NumBins(j)), want.size() + 1);
      for (size_t b = 0; b < want.size(); ++b) {
        const double got = binner.EdgeValue(j, static_cast<int>(b));
        ASSERT_EQ(std::bit_cast<uint64_t>(got),
                  std::bit_cast<uint64_t>(want[b]))
            << "feature " << j << " edge " << b;
      }
      for (size_t i = 0; i < d.n(); ++i) {
        ASSERT_EQ(binner.Column(j)[i], binner.BinOf(j, d.At(i, j)))
            << "feature " << j << " row " << i;
      }
    }
  }
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
    const double* dist = tree.forest().Leaf(0, q);
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
  EXPECT_NEAR(tree.forest().Leaf(0, lo)[0], 2.0, 0.3);
  EXPECT_NEAR(tree.forest().Leaf(0, hi)[0], 8.0, 0.3);
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
  EXPECT_LE(tree.forest().num_nodes(), 3u);
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

// Prediction pins: FNV-1a of the bit patterns of `width` outputs per row
// of `data`, as `predict(row, out)` writes them. Recorded when every
// model still kept node-list trees beside the forest it predicted from,
// so they hold what the models serve, not only what they save, to the
// models of that time.
template <typename Predict>
uint64_t OutputHash(const Dataset& data, size_t width, Predict predict) {
  std::vector<double> out(data.n() * width);
  for (size_t i = 0; i < data.n(); ++i) predict(data.Row(i), &out[i * width]);
  return Fnv1a64(out.data(), out.size() * sizeof(double));
}

uint64_t PredictionHash(const Classifier& model, const Dataset& data) {
  return OutputHash(data, static_cast<size_t>(model.num_classes()),
                    [&](const double* x, double* out) {
                      model.PredictProbaInto(x, out);
                    });
}

uint64_t PredictionHash(const Regressor& model, const Dataset& data) {
  return OutputHash(data, 1, [&](const double* x, double* out) {
    *out = model.Predict(x);
  });
}

// A standalone tree's output is its leaf payload: the class distribution
// of a classification tree, the mean of a regression tree.
uint64_t PredictionHash(const DecisionTree& tree, const Dataset& data) {
  const CompiledForest& forest = tree.forest();
  const size_t width = forest.payload_stride();
  return OutputHash(data, width, [&](const double* x, double* out) {
    const double* leaf = forest.Leaf(0, x);
    std::copy(leaf, leaf + width, out);
  });
}

TEST(GoldenModelTest, RandomForestSampledBinner) {
  RandomForest::Options o;
  o.num_trees = 12;
  RandomForest rf(o);
  const Dataset data = GoldenData(5000, 31);
  rf.Fit(data);
  ExpectHash(SavedHash(rf), 0x419afa97b2de393bull);
  ExpectHash(PredictionHash(rf, data), 0x61e0b270db2bffa8ull);
}

TEST(GoldenModelTest, RandomForestRegressor) {
  RandomForestRegressor::Options o;
  o.num_trees = 12;
  o.bootstrap_fraction = 0.7;
  RandomForestRegressor rf(o);
  const Dataset data = GoldenData(700, 32);
  rf.Fit(data);
  ExpectHash(SavedHash(rf), 0x20768f5fe45c75a2ull);
  ExpectHash(PredictionHash(rf, data), 0xdaf38c36bf72f0bbull);
}

TEST(GoldenModelTest, GradientBoostedTreesSampledBinner) {
  GradientBoostedTrees::Options o;
  o.num_rounds = 6;
  GradientBoostedTrees gbt(o);
  const Dataset data = GoldenData(5000, 33);
  gbt.Fit(data);
  ExpectHash(SavedHash(gbt), 0x236958722ba40e13ull);
  ExpectHash(PredictionHash(gbt, data), 0x5612c2a979174905ull);
}

TEST(GoldenModelTest, GradientBoostedTreesRegressor) {
  GradientBoostedTreesRegressor::Options o;
  o.num_rounds = 20;
  GradientBoostedTreesRegressor gbt(o);
  const Dataset data = GoldenData(900, 34);
  gbt.Fit(data);
  ExpectHash(SavedHash(gbt), 0x7ce63415ecbc6e9dull);
  ExpectHash(PredictionHash(gbt, data), 0xde726765bfa34b3eull);
}

TEST(GoldenModelTest, HistGradientBoostingSampledBinner) {
  HistGradientBoosting::Options o;
  o.num_rounds = 5;
  HistGradientBoosting lgbm(o);
  const Dataset data = GoldenData(5000, 35);
  lgbm.Fit(data);
  ExpectHash(SavedHash(lgbm), 0x60b7de69aed95d29ull);
  ExpectHash(PredictionHash(lgbm, data), 0xb71c31166f8da1d3ull);
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
  ExpectHash(PredictionHash(cls, d), 0x94652ee67d8c0545ull);
  DecisionTree reg(o);
  reg.FitRegression(d, rows, d.targets(), nullptr);
  ExpectHash(SavedHash(reg), 0xe0c2f43a57eb579full);
  ExpectHash(PredictionHash(reg, d), 0x95f59cefa21b94f4ull);
}

// Golden models in the regime of the plan-pair datasets the learning loop
// fits: 780 rows x 106 features, most columns with a handful of distinct
// values (so values sit on bin edges and a node occupies few bins), and
// column 0 continuous, so it has exactly kMaxBins bins and its top bin is
// the last bit of a 64-bit occupancy mask.
Dataset PairLikeData(size_t n, int classes, uint64_t seed) {
  constexpr size_t kD = 106;
  Rng rng(seed);
  Dataset d(kD);
  std::vector<double> x(kD);
  for (size_t i = 0; i < n; ++i) {
    x[0] = rng.Uniform(0, 1);
    for (size_t j = 1; j < kD; ++j) {
      switch (j % 4) {
        case 0:
          x[j] = static_cast<double>(rng.Index(2));
          break;
        case 1:
          x[j] = static_cast<double>(rng.Index(4));
          break;
        case 2:
          x[j] = rng.Uniform(0, 1) < 0.85
                     ? 0.0
                     : static_cast<double>(rng.Index(6) + 1);
          break;
        default:
          x[j] = std::round(rng.Gaussian(0, 2)) * 0.5;
          break;
      }
    }
    const double score = 2 * x[0] + x[1] - 0.5 * x[2] + x[4] + 0.3 * x[7] +
                         0.2 * x[10];
    int label = static_cast<int>(score * classes / 8.0);
    label = std::max(0, std::min(classes - 1, label));
    if (rng.Uniform(0, 1) < 0.15) label = static_cast<int>(rng.Index(
                                      static_cast<size_t>(classes)));
    const double target = score * score + x[3] - x[9] + rng.Gaussian(0, 0.2);
    d.Add(x, label, target);
  }
  return d;
}

TEST(GoldenModelTest, PairLikeDataHasFullAndSparseColumns) {
  const Dataset d = PairLikeData(780, 5, 41);
  std::vector<size_t> all(d.n());
  for (size_t i = 0; i < d.n(); ++i) all[i] = i;
  Rng rng(1);
  FeatureBinner binner;
  binner.Fit(d, all, &rng);
  EXPECT_EQ(binner.NumBins(0), FeatureBinner::kMaxBins);
  for (size_t j = 1; j < d.d(); ++j) EXPECT_LE(binner.NumBins(j), 16);
}

TEST(GoldenModelTest, RandomForestPairLikeFiveClassesLeaf0) {
  RandomForest::Options o;
  o.num_trees = 6;
  o.min_samples_leaf = 0;
  o.bootstrap_fraction = 1.0;
  RandomForest rf(o);
  rf.Fit(PairLikeData(780, 5, 41));
  ExpectHash(SavedHash(rf), 0x9f6cbaecce9edc93ull);
}

TEST(GoldenModelTest, RandomForestPairLikeFiveClassesLeaf3HalfSample) {
  RandomForest::Options o;
  o.num_trees = 6;
  o.min_samples_leaf = 3;
  o.bootstrap_fraction = 0.5;
  RandomForest rf(o);
  rf.Fit(PairLikeData(780, 5, 41));
  ExpectHash(SavedHash(rf), 0x67466248f52fde77ull);
}

TEST(GoldenModelTest, RandomForestPairLikeThreeClasses) {
  RandomForest::Options o;
  o.num_trees = 6;
  RandomForest rf(o);
  rf.Fit(PairLikeData(780, 3, 42));
  ExpectHash(SavedHash(rf), 0x1202317c4193d6baull);
}

TEST(GoldenModelTest, RandomForestRegressorPairLike) {
  RandomForestRegressor::Options o;
  o.num_trees = 6;
  o.bootstrap_fraction = 1.0;
  RandomForestRegressor rf(o);
  rf.Fit(PairLikeData(780, 5, 41));
  ExpectHash(SavedHash(rf), 0xa1d2e8c28875a8d5ull);
}

TEST(GoldenModelTest, RandomForestRegressorPairLikeLeaf3HalfSample) {
  RandomForestRegressor::Options o;
  o.num_trees = 6;
  o.min_samples_leaf = 3;
  o.bootstrap_fraction = 0.5;
  RandomForestRegressor rf(o);
  rf.Fit(PairLikeData(780, 5, 41));
  ExpectHash(SavedHash(rf), 0x6c1d6c61df354674ull);
}

// With min_samples_leaf 0 the split after the highest occupied bin leaves
// the right side empty; its target sum (the node sum minus the bin sums)
// can round to a nonzero value and give an infinite gain. The scan never
// evaluates a split with an empty side, so this fit completes, and equals
// the min_samples_leaf 1 fit (a one-draw node cannot split either way).
TEST(GoldenModelTest, RandomForestRegressorPairLikeLeaf0) {
  RandomForestRegressor::Options o;
  o.num_trees = 6;
  o.min_samples_leaf = 0;
  RandomForestRegressor rf(o);
  rf.Fit(PairLikeData(780, 5, 41));
  ExpectHash(SavedHash(rf), 0xa1d2e8c28875a8d5ull);
}

TEST(GoldenModelTest, GradientBoostedTreesPairLike) {
  GradientBoostedTrees::Options o;
  o.num_rounds = 4;
  GradientBoostedTrees gbt(o);
  gbt.Fit(PairLikeData(780, 3, 43));
  ExpectHash(SavedHash(gbt), 0x0c1bb167c0deb8d0ull);
}

TEST(GoldenModelTest, StandaloneTreesPairLikeBootstrap) {
  // A bootstrap sample with its duplicates, binned by the tree itself.
  const Dataset d = PairLikeData(780, 5, 44);
  Rng rng(45);
  std::vector<size_t> rows(d.n());
  for (size_t& r : rows) r = rng.Index(d.n());
  DecisionTree::Options o;
  o.feature_fraction = -1;
  o.min_samples_leaf = 2;
  DecisionTree cls(o);
  cls.FitClassification(d, rows, 5, nullptr);
  ExpectHash(SavedHash(cls), 0xa1de35efc2cfaf85ull);
  DecisionTree reg(o);
  reg.FitRegression(d, rows, d.targets(), nullptr);
  ExpectHash(SavedHash(reg), 0x8e12098050600769ull);
}

// Model files come from outside the process: a cut or malformed one must
// fail to load with DATA_LOSS, never abort. The whole file must load back
// to the same bytes and the same predictions.
template <typename Model>
void ExpectEveryTruncatedPrefixFails(const Model& fitted,
                                     const Dataset& data) {
  std::ostringstream out;
  TokenWriter w(&out);
  fitted.Save(&w);
  const std::string bytes = out.str();
  for (size_t len = 0; len < bytes.size(); ++len) {
    std::istringstream in(bytes.substr(0, len));
    TokenReader r(&in);
    Model loaded;
    ASSERT_EQ(loaded.Load(&r).code(), StatusCode::kDataLoss)
        << "prefix of " << len << " bytes";
  }
  std::istringstream in(bytes);
  TokenReader r(&in);
  Model loaded;
  const Status st = loaded.Load(&r);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(SavedHash(loaded), SavedHash(fitted));
  EXPECT_EQ(PredictionHash(loaded, data), PredictionHash(fitted, data));
}

TEST(ModelLoadTest, EveryTruncatedForestPrefixFails) {
  const Dataset data = Blobs(3, 30, 51, /*separation=*/2.0);
  RandomForest::Options o;
  o.num_trees = 3;
  o.max_depth = 4;
  RandomForest rf(o);
  rf.Fit(data);
  ExpectEveryTruncatedPrefixFails(rf, data);
  LogisticRegression::Options lo;
  lo.epochs = 2;
  LogisticRegression lr(lo);
  lr.Fit(data);
  ExpectEveryTruncatedPrefixFails(lr, data);
  HistGradientBoosting::Options ho;
  ho.num_rounds = 2;
  ho.max_leaves = 4;
  HistGradientBoosting hgbt(ho);
  hgbt.Fit(data);
  ExpectEveryTruncatedPrefixFails(hgbt, data);

  // The other tree models, on data with regression targets too.
  const Dataset golden = GoldenData(80, 52);
  GradientBoostedTrees::Options go;
  go.num_rounds = 2;
  go.max_depth = 3;
  GradientBoostedTrees gbt(go);
  gbt.Fit(golden);
  ExpectEveryTruncatedPrefixFails(gbt, golden);
  GradientBoostedTreesRegressor gbt_reg(go);
  gbt_reg.Fit(golden);
  ExpectEveryTruncatedPrefixFails(gbt_reg, golden);
  RandomForestRegressor::Options ro;
  ro.num_trees = 2;
  ro.max_depth = 4;
  RandomForestRegressor rf_reg(ro);
  rf_reg.Fit(golden);
  ExpectEveryTruncatedPrefixFails(rf_reg, golden);
  std::vector<size_t> rows(golden.n());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  DecisionTree::Options to;
  to.max_depth = 4;
  DecisionTree cls(to);
  cls.FitClassification(golden, rows, 3, nullptr);
  ExpectEveryTruncatedPrefixFails(cls, golden);
  DecisionTree reg(to);
  reg.FitRegression(golden, rows, golden.targets(), nullptr);
  ExpectEveryTruncatedPrefixFails(reg, golden);
}

// One tree token stream: `nodes` holds (feature, left, right, dist size)
// per node, as DecisionTree::Save lays them out.
std::string TreeTokens(int classes, uint64_t claimed_nodes,
                       const std::vector<std::vector<int64_t>>& nodes) {
  std::ostringstream out;
  TokenWriter w(&out);
  w.WriteTag("rf");
  w.WriteInt(classes);
  w.WriteUInt(1);
  w.WriteTag("tree");
  w.WriteInt(classes);
  w.WriteBool(false);
  w.WriteUInt(claimed_nodes);
  for (const std::vector<int64_t>& n : nodes) {
    w.WriteInt(n[0]);
    w.WriteDouble(0.5);
    w.WriteInt(n[1]);
    w.WriteInt(n[2]);
    w.WriteDouble(0);
    w.WriteDoubleVector(std::vector<double>(static_cast<size_t>(n[3]), 0.5));
  }
  return out.str();
}

Status LoadForest(const std::string& bytes) {
  std::istringstream in(bytes);
  TokenReader r(&in);
  RandomForest rf;
  return rf.Load(&r);
}

// One boosted tree token stream: `nodes` holds (feature, left, right) per
// node, as the hgbt layout saves them.
std::string HgbtTokens(uint64_t claimed_nodes,
                       const std::vector<std::vector<int64_t>>& nodes) {
  std::ostringstream out;
  TokenWriter w(&out);
  w.WriteTag("hgbt");
  w.WriteInt(2);
  w.WriteDouble(0.1);
  w.WriteUInt(1);
  w.WriteUInt(claimed_nodes);
  for (const std::vector<int64_t>& n : nodes) {
    w.WriteInt(n[0]);
    w.WriteDouble(0.5);
    w.WriteInt(n[1]);
    w.WriteInt(n[2]);
    w.WriteDouble(0.25);
  }
  return out.str();
}

Status LoadBoosted(const std::string& bytes) {
  std::istringstream in(bytes);
  TokenReader r(&in);
  HistGradientBoosting hgbt;
  return hgbt.Load(&r);
}

TEST(ModelLoadTest, RejectsMalformedTreeStructure) {
  // A well-formed stump loads.
  ASSERT_TRUE(
      LoadForest(TreeTokens(2, 3, {{0, 1, 2, 0}, {-1, -1, -1, 2},
                                   {-1, -1, -1, 2}}))
          .ok());
  // A child id past the last node, or one pointing back at its parent.
  EXPECT_EQ(LoadForest(TreeTokens(2, 3, {{0, 1, 3, 0}, {-1, -1, -1, 2},
                                         {-1, -1, -1, 2}}))
                .code(),
            StatusCode::kDataLoss);
  EXPECT_FALSE(LoadForest(TreeTokens(2, 3, {{0, 0, 2, 0}, {-1, -1, -1, 2},
                                            {-1, -1, -1, 2}}))
                   .ok());
  // A leaf distribution whose size is not the class count.
  EXPECT_FALSE(LoadForest(TreeTokens(2, 3, {{0, 1, 2, 0}, {-1, -1, -1, 3},
                                            {-1, -1, -1, 2}}))
                   .ok());
  // A node count the stream cannot hold, and an empty tree.
  EXPECT_FALSE(LoadForest(TreeTokens(2, uint64_t{1} << 40,
                                     {{-1, -1, -1, 2}}))
                   .ok());
  EXPECT_FALSE(LoadForest(TreeTokens(2, 0, {})).ok());
  // A forest whose trees disagree with its class count.
  EXPECT_FALSE(LoadForest(TreeTokens(1, 1, {{-1, -1, -1, 1}})).ok());
  // A boosted stump loads; one whose right child is past its last node
  // does not.
  const std::vector<std::vector<int64_t>> stump = {
      {0, 1, 2}, {-1, -1, -1}, {-1, -1, -1}};
  ASSERT_TRUE(LoadBoosted(HgbtTokens(3, stump)).ok());
  EXPECT_EQ(LoadBoosted(HgbtTokens(2, stump)).code(), StatusCode::kDataLoss);
  // A boosted split feature below -1, an empty boosted tree, and a node
  // count the stream cannot hold.
  EXPECT_EQ(LoadBoosted(HgbtTokens(3, {{-2, 1, 2}, {-1, -1, -1},
                                       {-1, -1, -1}}))
                .code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(LoadBoosted(HgbtTokens(0, {})).code(), StatusCode::kDataLoss);
  EXPECT_EQ(LoadBoosted(HgbtTokens(uint64_t{1} << 40, {{-1, -1, -1}})).code(),
            StatusCode::kDataLoss);
}

// MaxFeature lets a caller check a loaded model against its feature width
// before a split reads past the row.
TEST(ModelLoadTest, MaxFeatureIsTheLargestSplitFeature) {
  for (int64_t feature : {0, 7, 1000000}) {
    std::istringstream in(TreeTokens(2, 3, {{feature, 1, 2, 0},
                                            {-1, -1, -1, 2},
                                            {-1, -1, -1, 2}}));
    TokenReader r(&in);
    RandomForest rf;
    ASSERT_TRUE(rf.Load(&r).ok());
    EXPECT_EQ(rf.MaxFeature(), feature);
  }
  std::istringstream in(TreeTokens(2, 1, {{-1, -1, -1, 2}}));
  TokenReader r(&in);
  RandomForest rf;
  ASSERT_TRUE(rf.Load(&r).ok());
  EXPECT_EQ(rf.MaxFeature(), -1);
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
