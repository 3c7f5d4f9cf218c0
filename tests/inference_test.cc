// Inference fast path: every tree model's forest must serve what its
// saved trees say (a test-local walker over the Save() tokens), and the
// zero-allocation wrappers, hidden-layer pass and plan-pair
// featurization memo must be bit-identical to the reference paths they
// replace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "featurize/feature_cache.h"
#include "ml/decision_tree.h"
#include "ml/gbt.h"
#include "ml/hist_gbt.h"
#include "ml/knn.h"
#include "ml/neural_net.h"
#include "ml/random_forest.h"
#include "models/classifier_model.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

/// Synthetic 3-class dataset with enough structure for every family.
Dataset MakeClassData(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset data(6);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = rng.Uniform(-1, 1);
    const int label = x[0] + x[1] > 0.3 ? 1 : (x[2] > 0.5 ? 2 : 0);
    data.Add(x, label);
  }
  return data;
}

Dataset MakeRegData(size_t n, uint64_t seed) {
  Rng rng(seed);
  Dataset data(6);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = rng.Uniform(-1, 1);
    data.Add(x, 0, 3 * x[0] - x[1] * x[2] + 0.5 * x[4]);
  }
  return data;
}

// Test-local reference walker. It parses a tree model's own Save() tokens
// into plain node lists and descends them with its own loop, so no part of
// CompiledForest or of the tree decoder stands between a model's saved
// trees and the outputs it is checked against.
struct TokenNode {
  int64_t feature;
  double threshold;
  int64_t left;
  int64_t right;
  double value;
  std::vector<double> dist;  // `tree` records only.
};
using TokenTree = std::vector<TokenNode>;

const TokenNode& WalkToLeaf(const TokenTree& tree, const double* x) {
  size_t id = 0;
  while (tree[id].feature >= 0) {
    const TokenNode& n = tree[id];
    id = static_cast<size_t>(x[n.feature] <= n.threshold ? n.left : n.right);
  }
  return tree[id];
}

TokenTree ReadNodes(TokenReader* r, bool with_dist) {
  TokenTree tree(r->ReadUInt());
  for (TokenNode& n : tree) {
    n.feature = r->ReadInt();
    n.threshold = r->ReadDouble();
    n.left = r->ReadInt();
    n.right = r->ReadInt();
    n.value = r->ReadDouble();
    if (with_dist) n.dist = r->ReadDoubleVector();
  }
  return tree;
}

// A tree count, then that many `tree` records.
std::vector<TokenTree> ReadTreeRecords(TokenReader* r) {
  std::vector<TokenTree> trees(r->ReadUInt());
  for (TokenTree& t : trees) {
    r->ExpectTag("tree");
    r->ReadInt();   // Class count.
    r->ReadBool();  // Regression flag.
    t = ReadNodes(r, /*with_dist=*/true);
  }
  return trees;
}

// A model's saved trees and the scalars its outputs combine them with.
struct TokenModel {
  std::string kind;
  size_t classes = 1;
  double learning_rate = 0;
  double base = 0;
  std::vector<TokenTree> trees;
};

template <typename Model>
TokenModel ParseSaved(const Model& model) {
  std::stringstream ss;
  TokenWriter w(&ss);
  model.Save(&w);
  TokenModel m;
  m.kind = ss.str().substr(0, ss.str().find(' '));  // The leading tag.
  TokenReader r(&ss);
  r.ExpectTag(m.kind.c_str());
  if (m.kind == "rf") {
    m.classes = static_cast<size_t>(r.ReadInt());
    m.trees = ReadTreeRecords(&r);
  } else if (m.kind == "rfreg") {
    m.trees = ReadTreeRecords(&r);
  } else if (m.kind == "gbt") {
    m.classes = static_cast<size_t>(r.ReadInt());
    m.learning_rate = r.ReadDouble();
    m.trees = ReadTreeRecords(&r);
  } else if (m.kind == "gbtreg") {
    m.base = r.ReadDouble();
    m.learning_rate = r.ReadDouble();
    m.trees = ReadTreeRecords(&r);
  } else if (m.kind == "hgbt") {
    m.classes = static_cast<size_t>(r.ReadInt());
    m.learning_rate = r.ReadDouble();
    m.trees.resize(r.ReadUInt());
    for (TokenTree& t : m.trees) t = ReadNodes(&r, /*with_dist=*/false);
  } else if (m.kind == "tree") {
    m.classes = static_cast<size_t>(r.ReadInt());
    r.ReadBool();
    m.trees.push_back(ReadNodes(&r, /*with_dist=*/true));
  }
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return m;
}

// The model's outputs for `x` as its kind combines its trees' leaves:
// bagged leaf distributions or means averaged in tree order, boosted
// leaf values scaled and summed round-robin over the classes.
std::vector<double> WalkOutputs(const TokenModel& m, const double* x) {
  std::vector<double> out(m.kind == "rfreg" || m.kind == "gbtreg" ? 1
                                                                  : m.classes);
  if (m.kind == "tree") {
    const TokenNode& leaf = WalkToLeaf(m.trees[0], x);
    return m.classes == 0 ? std::vector<double>{leaf.value} : leaf.dist;
  }
  if (m.kind == "rf" || m.kind == "rfreg") {
    for (const TokenTree& t : m.trees) {
      const TokenNode& leaf = WalkToLeaf(t, x);
      if (m.kind == "rf") {
        for (size_t c = 0; c < out.size(); ++c) out[c] += leaf.dist[c];
      } else {
        out[0] += leaf.value;
      }
    }
    if (m.kind == "rfreg") {
      out[0] /= static_cast<double>(m.trees.size());
    } else {
      const double inv = 1.0 / static_cast<double>(m.trees.size());
      for (double& p : out) p *= inv;
    }
    return out;
  }
  out[0] = m.base;
  for (size_t t = 0; t < m.trees.size(); ++t) {
    out[t % out.size()] +=
        m.learning_rate * WalkToLeaf(m.trees[t], x).value;
  }
  if (m.kind != "gbtreg") SoftmaxInPlace(out.data(), out.size());
  return out;
}

// Served outputs vs the token walker on every row, compared exactly: a
// tree model must serve what its saved trees say, bit for bit.
template <typename Model>
void ExpectMatchesTokenWalker(const Model& model, const Dataset& data) {
  const TokenModel m = ParseSaved(model);
  ASSERT_FALSE(m.trees.empty()) << m.kind;
  std::vector<double> got;
  for (size_t i = 0; i < data.n(); ++i) {
    const double* x = data.Row(i);
    if constexpr (std::is_base_of_v<Classifier, Model>) {
      got = model.PredictProba(x);
    } else if constexpr (std::is_base_of_v<Regressor, Model>) {
      got = {model.Predict(x)};
    } else {
      const double* leaf = model.forest().Leaf(0, x);
      got.assign(leaf, leaf + model.forest().payload_stride());
    }
    ASSERT_EQ(WalkOutputs(m, x), got) << m.kind << " row " << i;
  }
}

TEST(CompiledForestTest, DecisionTreeCompiledTraversalMatchesNodes) {
  const Dataset data = MakeClassData(300, 11);
  std::vector<size_t> rows(data.n());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  DecisionTree tree;
  tree.FitClassification(data, rows, 3, nullptr);
  ASSERT_EQ(tree.forest().num_trees(), 1u);
  ExpectMatchesTokenWalker(tree, data);
}

TEST(CompiledForestTest, RegressionTreeCompiledTraversalMatchesNodes) {
  const Dataset data = MakeRegData(300, 12);
  std::vector<size_t> rows(data.n());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  std::vector<double> targets(data.n());
  for (size_t i = 0; i < data.n(); ++i) targets[i] = data.Target(i);
  DecisionTree tree;
  tree.FitRegression(data, rows, targets, nullptr);
  ExpectMatchesTokenWalker(tree, data);
}

TEST(InferenceTest, RandomForestMatchesTokenWalker) {
  const Dataset data = MakeClassData(400, 21);
  RandomForest::Options o;
  o.num_trees = 30;
  o.seed = 5;
  RandomForest rf(o);
  rf.Fit(data);
  ExpectMatchesTokenWalker(rf, data);
}

TEST(InferenceTest, GbtMatchesTokenWalker) {
  const Dataset data = MakeClassData(400, 22);
  GradientBoostedTrees::Options o;
  o.seed = 6;
  GradientBoostedTrees gbt(o);
  gbt.Fit(data);
  ExpectMatchesTokenWalker(gbt, data);
}

TEST(InferenceTest, HistGbtMatchesTokenWalker) {
  const Dataset data = MakeClassData(400, 23);
  HistGradientBoosting::Options o;
  o.seed = 7;
  HistGradientBoosting lgbm(o);
  lgbm.Fit(data);
  ExpectMatchesTokenWalker(lgbm, data);
}

TEST(InferenceTest, HybridDnnHiddenPassMatchesLastHiddenFeatures) {
  const Dataset data = MakeClassData(300, 25);
  NeuralNetClassifier::Options dnn;
  dnn.architecture = NeuralNetClassifier::Architecture::kFullyConnected;
  dnn.fc_layers = 3;
  dnn.fc_units = 16;
  dnn.epochs = 5;
  dnn.seed = 9;
  RandomForest::Options rfo;
  rfo.num_trees = 10;
  rfo.seed = 13;
  HybridDnnClassifier hybrid(dnn, rfo);
  hybrid.Fit(data);
  const NeuralNetClassifier& nn = hybrid.dnn();

  // Reference stack: the same forest fit on allocating hidden features.
  Dataset hidden_data(nn.LastHiddenDim());
  for (size_t i = 0; i < data.n(); ++i) {
    hidden_data.Add(nn.LastHiddenFeatures(data.Row(i)), data.Label(i));
  }
  RandomForest reference(rfo);
  reference.Fit(hidden_data);

  std::vector<double> hidden(nn.LastHiddenDim());
  std::vector<double> got(3), want(3);
  for (size_t i = 0; i < data.n(); ++i) {
    // Interleaves probability and hidden passes on the thread's shared
    // scratch, so a pass that read stale scratch would show here.
    hybrid.PredictProbaInto(data.Row(i), got.data());
    nn.LastHiddenInto(data.Row(i), hidden.data());
    const std::vector<double> ref = nn.LastHiddenFeatures(data.Row(i));
    ASSERT_EQ(ref, hidden) << "row " << i;
    reference.PredictProbaInto(ref.data(), want.data());
    ASSERT_EQ(want, got) << "row " << i;
  }
}

TEST(InferenceTest, RegressorsMatchTokenWalker) {
  const Dataset data = MakeRegData(400, 26);

  RandomForestRegressor::Options ro;
  ro.num_trees = 20;
  ro.seed = 10;
  RandomForestRegressor rf(ro);
  rf.Fit(data);
  GradientBoostedTreesRegressor gbt;
  gbt.Fit(data);

  ExpectMatchesTokenWalker(rf, data);
  ExpectMatchesTokenWalker(gbt, data);
}

TEST(InferenceTest, SaveLoadKeepsCompiledPathsIdentical) {
  const Dataset data = MakeClassData(300, 27);
  RandomForest::Options o;
  o.num_trees = 15;
  o.seed = 11;
  RandomForest rf(o);
  rf.Fit(data);

  std::stringstream ss;
  TokenWriter w(&ss);
  rf.Save(&w);
  RandomForest loaded;
  TokenReader r(&ss);
  ASSERT_TRUE(loaded.Load(&r).ok());

  // The loaded forest serves what its trees say, and what the fitted one
  // served.
  ExpectMatchesTokenWalker(loaded, data);
  std::vector<double> a(3), b(3);
  for (size_t i = 0; i < data.n(); i += 7) {
    rf.PredictProbaInto(data.Row(i), a.data());
    loaded.PredictProbaInto(data.Row(i), b.data());
    ASSERT_EQ(a, b);
  }
}

TEST(InferenceTest, ZeroAllocWrappersMatchAllocatingOnes) {
  const Dataset data = MakeClassData(300, 28);
  RandomForest::Options o;
  o.num_trees = 20;
  o.seed = 12;
  RandomForest rf(o);
  rf.Fit(data);
  std::vector<double> scratch(3);
  for (size_t i = 0; i < data.n(); i += 3) {
    const std::vector<double> p = rf.PredictProba(data.Row(i));
    EXPECT_EQ(rf.Predict(data.Row(i)),
              Classifier::ArgmaxLabel(p.data(), p.size()));
    EXPECT_EQ(rf.Predict(data.Row(i)), rf.Predict(data.Row(i), scratch.data()));
    EXPECT_EQ(rf.Uncertainty(data.Row(i)),
              rf.UncertaintyInto(data.Row(i), scratch.data()));
  }
}

TEST(InferenceTest, KnnMajorityMatchesBruteForceReference) {
  Rng rng(31);
  Dataset data(4);
  for (int i = 0; i < 120; ++i) {
    std::vector<double> x(4);
    for (double& v : x) v = rng.Uniform(-1, 1);
    data.Add(x, i % 5);
  }
  KnnIndex knn;
  knn.Fit(data);
  // Reference: full sort on (distance, label), count the first k, break
  // vote ties toward the smallest label.
  auto reference = [&](const double* q, int k) {
    std::vector<std::pair<double, int>> d;
    for (size_t i = 0; i < data.n(); ++i) {
      double dot = 0, na = 0, nb = 0;
      for (size_t j = 0; j < 4; ++j) {
        dot += q[j] * data.Row(i)[j];
        na += q[j] * q[j];
        nb += data.Row(i)[j] * data.Row(i)[j];
      }
      const double denom = std::sqrt(na) * std::sqrt(nb);
      d.emplace_back(denom <= 1e-12 ? 1.0 : 1.0 - dot / denom,
                     data.Label(i));
    }
    std::sort(d.begin(), d.end());
    std::map<int, int> votes;
    for (int i = 0; i < k; ++i) ++votes[d[static_cast<size_t>(i)].second];
    int best = -1, bv = -1;
    for (const auto& [label, v] : votes) {
      if (v > bv) {
        bv = v;
        best = label;
      }
    }
    return best;
  };
  for (int t = 0; t < 40; ++t) {
    std::vector<double> q(4);
    for (double& v : q) v = rng.Uniform(-1, 1);
    for (int k : {1, 3, 7}) {
      EXPECT_EQ(knn.PredictMajority(q.data(), k), reference(q.data(), k));
    }
  }
}

// ---------------------------------------------------------------------------
// Plan fingerprints and the pair-featurization memo.

TEST(FeatureCacheTest, ContentHashIsStableAndContentSensitive) {
  auto bdb = BuildTpchLike("fc", 1, 0.9, 41);
  const auto plan = bdb->what_if()->Optimize(bdb->queries()[0], {});
  const auto clone = plan->Clone();
  EXPECT_EQ(plan->ContentHash(), clone->ContentHash());
  EXPECT_EQ(plan->ContentHash(), plan->ContentHash());

  // Optimizer estimates are identity; execution results are not.
  auto est = plan->Clone();
  est->root->stats.est_rows += 1;
  EXPECT_NE(est->ContentHash(), plan->ContentHash());
  auto act = plan->Clone();
  act->root->stats.actual_rows += 1;
  act->root->stats.executed = true;
  act->actual_total_cost = 123;
  EXPECT_EQ(act->ContentHash(), plan->ContentHash());

  // Different queries produce different plans and different hashes.
  const auto other = bdb->what_if()->Optimize(bdb->queries()[1], {});
  EXPECT_NE(other->ContentHash(), plan->ContentHash());
}

TEST(FeatureCacheTest, MemoReturnsIdenticalVectorsAndCountsHits) {
  auto bdb = BuildTpchLike("fm", 1, 0.9, 42);
  const auto p1 = bdb->what_if()->Optimize(bdb->queries()[0], {});
  const auto p2 = bdb->what_if()->Optimize(bdb->queries()[1], {});
  PairFeaturizer fz({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                    PairCombine::kPairDiffNormalized);

  PlanFeatureCache cache;
  const auto a = cache.GetOrCompute(fz, *p1);
  EXPECT_EQ(a->values, fz.plan_featurizer().Featurize(*p1).values);
  EXPECT_EQ(cache.num_misses(), 1);
  const auto b = cache.GetOrCompute(fz, *p1);
  EXPECT_EQ(a.get(), b.get());  // Same shared features, not a recompute.
  EXPECT_EQ(cache.num_hits(), 1);
  // The key is the plan's content: an equal clone hits as well.
  EXPECT_EQ(cache.GetOrCompute(fz, *p1->Clone()).get(), a.get());
  EXPECT_EQ(cache.num_hits(), 2);
  const auto c = cache.GetOrCompute(fz, *p2);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.num_misses(), 2);
  EXPECT_EQ(cache.size(), 2u);
  // Memoized plan features combine into the pair features bit for bit.
  EXPECT_EQ(fz.Combine(*a, *c), fz.Featurize(*p1, *p2));
  EXPECT_EQ(fz.Combine(*c, *a), fz.Featurize(*p2, *p1));
}

TEST(FeatureCacheTest, EvictionIsBoundedFifoAndHandlesAreStable) {
  auto bdb = BuildTpchLike("fe", 1, 0.9, 43);
  PairFeaturizer fz({Channel::kEstNodeCost}, PairCombine::kPairDiffNormalized);
  PlanFeatureCache cache(/*capacity=*/2);
  std::vector<std::shared_ptr<const PhysicalPlan>> plans;
  for (size_t i = 0; i < 3; ++i) {
    plans.push_back(bdb->what_if()->Optimize(bdb->queries()[i], {}));
  }
  const auto oldest = cache.GetOrCompute(fz, *plans[0]);
  cache.GetOrCompute(fz, *plans[1]);
  cache.GetOrCompute(fz, *plans[2]);  // Evicts the oldest entry.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.num_misses(), 3);
  // The newer entries are still cached.
  cache.GetOrCompute(fz, *plans[2]);
  EXPECT_EQ(cache.num_hits(), 1);
  // The evicted features stay alive for holders of the handle.
  EXPECT_EQ(oldest->values, fz.plan_featurizer().Featurize(*plans[0]).values);
  // Asking again misses and reproduces the same features.
  const auto again = cache.GetOrCompute(fz, *plans[0]);
  EXPECT_EQ(cache.num_misses(), 4);
  EXPECT_NE(again.get(), oldest.get());
  EXPECT_EQ(again->values, oldest->values);
  EXPECT_EQ(cache.size(), 2u);
}

}  // namespace
}  // namespace aimai
