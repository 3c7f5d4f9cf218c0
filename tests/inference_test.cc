// Inference fast path: the compiled SoA forests, batched predict entry
// points, zero-allocation wrappers, and the plan-pair featurization memo
// must all be bit-identical to the reference scalar paths they replace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "common/thread_pool.h"
#include "featurize/feature_cache.h"
#include "ml/decision_tree.h"
#include "ml/gbt.h"
#include "ml/hist_gbt.h"
#include "ml/knn.h"
#include "ml/logistic_regression.h"
#include "ml/neural_net.h"
#include "ml/random_forest.h"
#include "models/classifier_model.h"
#include "models/labeler.h"
#include "tuner/comparator.h"
#include "workloads/collection.h"
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

/// Flattens the dataset rows into a contiguous row-major matrix.
std::vector<double> Flatten(const Dataset& data) {
  std::vector<double> rows(data.n() * data.d());
  for (size_t i = 0; i < data.n(); ++i) {
    const double* r = data.Row(i);
    std::copy(r, r + data.d(), rows.begin() + static_cast<long>(i * data.d()));
  }
  return rows;
}

/// EXPECT_EQ on doubles is exact — that is the point: the batched and
/// compiled paths promise bit-identity, not closeness.
void ExpectBatchMatchesScalar(const Classifier& model, const Dataset& data) {
  const size_t k = static_cast<size_t>(model.num_classes());
  const std::vector<double> rows = Flatten(data);
  std::vector<double> batch(data.n() * k);
  model.PredictBatch(rows.data(), data.n(), data.d(), batch.data());
  std::vector<double> one(k);
  for (size_t i = 0; i < data.n(); ++i) {
    model.PredictProbaInto(data.Row(i), one.data());
    for (size_t c = 0; c < k; ++c) {
      ASSERT_EQ(one[c], batch[i * k + c]) << "row " << i << " class " << c;
    }
  }
}

TEST(CompiledForestTest, DecisionTreeCompiledTraversalMatchesNodes) {
  const Dataset data = MakeClassData(300, 11);
  std::vector<size_t> rows(data.n());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  DecisionTree tree;
  tree.FitClassification(data, rows, 3, nullptr);

  CompiledForest cf;
  cf.Reset(3);
  tree.CompileInto(&cf);
  ASSERT_EQ(cf.num_trees(), 1u);
  ASSERT_EQ(cf.num_nodes(), tree.num_nodes());
  for (size_t i = 0; i < data.n(); ++i) {
    const std::vector<double>& ref = tree.LeafDistribution(data.Row(i));
    const double* leaf = cf.Leaf(0, data.Row(i));
    for (size_t c = 0; c < 3; ++c) ASSERT_EQ(ref[c], leaf[c]) << "row " << i;
  }
}

TEST(CompiledForestTest, RegressionTreeCompiledTraversalMatchesNodes) {
  const Dataset data = MakeRegData(300, 12);
  std::vector<size_t> rows(data.n());
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  std::vector<double> targets(data.n());
  for (size_t i = 0; i < data.n(); ++i) targets[i] = data.Target(i);
  DecisionTree tree;
  tree.FitRegression(data, rows, targets, nullptr);

  CompiledForest cf;
  cf.Reset(1);
  tree.CompileInto(&cf);
  for (size_t i = 0; i < data.n(); ++i) {
    ASSERT_EQ(tree.PredictValue(data.Row(i)), cf.Leaf(0, data.Row(i))[0]);
  }
}

TEST(InferenceTest, RandomForestCompiledAndBatchedBitIdentical) {
  const Dataset data = MakeClassData(400, 21);
  RandomForest::Options o;
  o.num_trees = 30;
  o.seed = 5;
  RandomForest rf(o);
  rf.Fit(data);
  std::vector<double> fast(3);
  for (size_t i = 0; i < data.n(); ++i) {
    rf.PredictProbaInto(data.Row(i), fast.data());
    EXPECT_EQ(rf.PredictProbaScalar(data.Row(i)),
              std::vector<double>(fast.begin(), fast.end()));
  }
  ExpectBatchMatchesScalar(rf, data);
}

TEST(InferenceTest, GbtCompiledAndBatchedBitIdentical) {
  const Dataset data = MakeClassData(400, 22);
  GradientBoostedTrees::Options o;
  o.seed = 6;
  GradientBoostedTrees gbt(o);
  gbt.Fit(data);
  std::vector<double> fast(static_cast<size_t>(gbt.num_classes()));
  for (size_t i = 0; i < data.n(); ++i) {
    gbt.PredictProbaInto(data.Row(i), fast.data());
    EXPECT_EQ(gbt.PredictProbaScalar(data.Row(i)),
              std::vector<double>(fast.begin(), fast.end()));
  }
  ExpectBatchMatchesScalar(gbt, data);
}

TEST(InferenceTest, HistGbtCompiledAndBatchedBitIdentical) {
  const Dataset data = MakeClassData(400, 23);
  HistGradientBoosting::Options o;
  o.seed = 7;
  HistGradientBoosting lgbm(o);
  lgbm.Fit(data);
  std::vector<double> fast(static_cast<size_t>(lgbm.num_classes()));
  for (size_t i = 0; i < data.n(); ++i) {
    lgbm.PredictProbaInto(data.Row(i), fast.data());
    EXPECT_EQ(lgbm.PredictProbaScalar(data.Row(i)),
              std::vector<double>(fast.begin(), fast.end()));
  }
  ExpectBatchMatchesScalar(lgbm, data);
}

TEST(InferenceTest, LogisticRegressionBatchedBitIdentical) {
  const Dataset data = MakeClassData(400, 24);
  LogisticRegression::Options o;
  o.seed = 8;
  LogisticRegression lr(o);
  lr.Fit(data);
  ExpectBatchMatchesScalar(lr, data);
}

TEST(InferenceTest, NeuralNetBatchedBitIdentical) {
  const Dataset data = MakeClassData(300, 25);
  NeuralNetClassifier::Options o;
  o.architecture = NeuralNetClassifier::Architecture::kFullyConnected;
  o.fc_layers = 3;
  o.fc_units = 16;
  o.epochs = 5;
  o.seed = 9;
  NeuralNetClassifier nn(o);
  nn.Fit(data);
  ExpectBatchMatchesScalar(nn, data);

  // The batched hidden-layer pass (the Hybrid model's input) too.
  const std::vector<double> rows = Flatten(data);
  const size_t hd = nn.LastHiddenDim();
  std::vector<double> hidden(data.n() * hd);
  nn.LastHiddenBatch(rows.data(), data.n(), data.d(), hidden.data());
  for (size_t i = 0; i < data.n(); i += 13) {
    const std::vector<double> ref = nn.LastHiddenFeatures(data.Row(i));
    for (size_t j = 0; j < hd; ++j) ASSERT_EQ(ref[j], hidden[i * hd + j]);
  }
}

TEST(InferenceTest, RegressorsBatchedBitIdentical) {
  const Dataset data = MakeRegData(400, 26);
  const std::vector<double> rows = Flatten(data);

  RandomForestRegressor::Options ro;
  ro.num_trees = 20;
  ro.seed = 10;
  RandomForestRegressor rf(ro);
  rf.Fit(data);
  GradientBoostedTreesRegressor gbt;
  gbt.Fit(data);

  std::vector<double> out(data.n());
  rf.PredictBatch(rows.data(), data.n(), data.d(), out.data());
  for (size_t i = 0; i < data.n(); ++i) {
    ASSERT_EQ(rf.Predict(data.Row(i)), out[i]);
    ASSERT_EQ(rf.PredictScalar(data.Row(i)), out[i]);
  }
  gbt.PredictBatch(rows.data(), data.n(), data.d(), out.data());
  for (size_t i = 0; i < data.n(); ++i) {
    ASSERT_EQ(gbt.Predict(data.Row(i)), out[i]);
    ASSERT_EQ(gbt.PredictScalar(data.Row(i)), out[i]);
  }
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
  loaded.Load(&r);

  // The loaded model must recompile: batch path, not just scalar.
  ExpectBatchMatchesScalar(loaded, data);
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

  PairFeatureCache cache;
  const auto a = cache.GetOrCompute(fz, *p1, *p2);
  EXPECT_EQ(*a, fz.Featurize(*p1, *p2));
  EXPECT_EQ(cache.num_misses(), 1);
  const auto b = cache.GetOrCompute(fz, *p1, *p2);
  EXPECT_EQ(a.get(), b.get());  // Same shared vector, not a recompute.
  EXPECT_EQ(cache.num_hits(), 1);
  // Ordered pairs: (p2, p1) is a different key.
  const auto c = cache.GetOrCompute(fz, *p2, *p1);
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(*c, fz.Featurize(*p2, *p1));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(FeatureCacheTest, EvictionIsBoundedFifoAndHandlesAreStable) {
  auto bdb = BuildTpchLike("fe", 1, 0.9, 43);
  PairFeaturizer fz({Channel::kEstNodeCost}, PairCombine::kPairDiffNormalized);
  PairFeatureCache cache(/*capacity=*/2);
  std::vector<std::shared_ptr<const PhysicalPlan>> plans;
  for (size_t i = 0; i < 4; ++i) {
    plans.push_back(bdb->what_if()->Optimize(bdb->queries()[i], {}));
  }
  const auto oldest = cache.GetOrCompute(fz, *plans[0], *plans[1]);
  cache.GetOrCompute(fz, *plans[1], *plans[2]);
  cache.GetOrCompute(fz, *plans[2], *plans[3]);  // Evicts the oldest entry.
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.num_evictions(), 1);
  EXPECT_EQ(cache.Lookup(plans[0]->ContentHash(), plans[1]->ContentHash()),
            nullptr);
  // The evicted vector stays alive for holders of the handle.
  EXPECT_EQ(*oldest, fz.Featurize(*plans[0], *plans[1]));
  // Recompute after eviction reproduces the same features.
  EXPECT_EQ(*cache.GetOrCompute(fz, *plans[0], *plans[1]), *oldest);
}

// ---------------------------------------------------------------------------
// Batched comparator: primed and unprimed answers are identical.

TEST(BatchedComparatorTest, PrimedLabelsMatchScalarLabels) {
  auto bdb = BuildTpchLike("bc", 1, 0.9, 51);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 4;
  copts.seed = 52;
  CollectExecutionData(bdb.get(), 0, copts, &repo);
  Rng rng(53);
  const auto train_pairs = repo.MakePairs(40, &rng);
  PairFeaturizer fz({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                    PairCombine::kPairDiffNormalized);
  PairDatasetBuilder builder(&repo, fz, PairLabeler(0.2));
  const Dataset data = builder.Build(train_pairs);
  auto trained = MakeClassifier(ModelKind::kRandomForest, fz, 54);
  trained->Fit(data);
  std::shared_ptr<const Classifier> model = std::move(trained);

  // Plan pairs from the optimizer under a few configurations.
  std::vector<std::shared_ptr<const PhysicalPlan>> plans;
  for (size_t i = 0; i < 6; ++i) {
    plans.push_back(bdb->what_if()->Optimize(bdb->queries()[i], {}));
  }
  std::vector<PlanPairView> pairs;
  for (size_t i = 0; i < plans.size(); ++i) {
    for (size_t j = 0; j < plans.size(); ++j) {
      if (i != j) pairs.push_back({plans[i].get(), plans[j].get()});
    }
  }

  ModelComparator primed(model, fz);
  ModelComparator unprimed(model, fz);

  ThreadPool pool(4);
  primed.Prime(pairs, &pool);
  EXPECT_GT(primed.num_batched_labels(), 0);

  for (const PlanPairView& pv : pairs) {
    // Scalar reference: featurize the pair and ask the model directly.
    const int want = model->Predict(fz.Featurize(*pv.p1, *pv.p2).data());
    EXPECT_EQ(primed.Label(*pv.p1, *pv.p2), want);
    EXPECT_EQ(unprimed.Label(*pv.p1, *pv.p2), want);
    EXPECT_EQ(primed.IsRegression(*pv.p1, *pv.p2), want == kRegression);
    EXPECT_EQ(primed.IsImprovement(*pv.p1, *pv.p2),
              want == kImprovement ||
                  (want == kUnsure &&
                   pv.p2->est_total_cost < pv.p1->est_total_cost));
  }
  // Every primed decision above was a memo hit.
  EXPECT_GT(primed.num_label_hits(), 0);
  // Re-priming the same pairs is a no-op (everything already labeled).
  const int64_t batched_before = primed.num_batched_labels();
  primed.Prime(pairs, &pool);
  EXPECT_EQ(primed.num_batched_labels(), batched_before);
}

}  // namespace
}  // namespace aimai
