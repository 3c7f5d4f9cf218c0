#include "ml/random_forest.h"

#include <algorithm>

#include "common/check.h"
#include "obs/obs.h"

namespace aimai {

namespace {

std::vector<size_t> Bootstrap(size_t n, double fraction, Rng* rng) {
  const size_t m = std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(n)));
  std::vector<size_t> rows(m);
  for (size_t i = 0; i < m; ++i) {
    rows[i] = rng->Index(n);
  }
  return rows;
}

DecisionTree::Options TreeOptions(const RandomForest::Options& o,
                                  uint64_t seed) {
  DecisionTree::Options t;
  t.max_depth = o.max_depth;
  t.min_samples_leaf = o.min_samples_leaf;
  t.min_impurity_decrease = o.min_impurity_decrease;
  t.feature_fraction = o.feature_fraction;
  t.seed = seed;
  return t;
}

}  // namespace

void RandomForest::Fit(const Dataset& train) {
  AIMAI_SPAN("ml.rf.fit");
  AIMAI_CHECK(train.n() > 0);
  num_classes_ = std::max(2, train.NumClasses());
  forest_.Reset(static_cast<size_t>(num_classes_));
  Rng rng(options_.seed);

  std::vector<size_t> all(train.n());
  for (size_t i = 0; i < train.n(); ++i) all[i] = i;
  FeatureBinner binner;
  binner.Fit(train, all, &rng);

  for (int t = 0; t < options_.num_trees; ++t) {
    const std::vector<size_t> rows =
        Bootstrap(train.n(), options_.bootstrap_fraction, &rng);
    DecisionTree(TreeOptions(options_, rng.engine()()))
        .GrowClassification(train, rows, num_classes_, &binner, &forest_);
  }
}

void RandomForest::PredictProbaInto(const double* x, double* out) const {
  AIMAI_SPAN("ml.rf.predict");
  AIMAI_CHECK(!forest_.empty());
  const size_t k = static_cast<size_t>(num_classes_);
  std::fill(out, out + k, 0.0);
  forest_.AccumulateAll(x, out);
  const double inv = 1.0 / static_cast<double>(forest_.num_trees());
  for (size_t c = 0; c < k; ++c) out[c] *= inv;
}

void RandomForestRegressor::Fit(const Dataset& train) {
  AIMAI_SPAN("ml.rfreg.fit");
  AIMAI_CHECK(train.n() > 0);
  forest_.Reset(1);
  Rng rng(options_.seed);

  std::vector<size_t> all(train.n());
  for (size_t i = 0; i < train.n(); ++i) all[i] = i;
  FeatureBinner binner;
  binner.Fit(train, all, &rng);

  for (int t = 0; t < options_.num_trees; ++t) {
    const std::vector<size_t> rows =
        Bootstrap(train.n(), options_.bootstrap_fraction, &rng);
    DecisionTree(TreeOptions(options_, rng.engine()()))
        .GrowRegression(train, rows, train.targets(), &binner, &forest_);
  }
}

void RandomForest::Save(TokenWriter* w) const {
  w->WriteTag("rf");
  w->WriteInt(num_classes_);
  SaveTrees(forest_, num_classes_, w);
}

Status RandomForest::Load(TokenReader* r) {
  r->ExpectTag("rf");
  const int64_t classes = r->ReadInt();
  if (!r->ok()) return r->status();
  if (classes < 2 || classes > DecisionTree::kMaxClasses) {
    return Status::DataLoss("forest: bad class count");
  }
  const Status st = LoadTrees(r, static_cast<int>(classes), &forest_);
  if (!st.ok()) return st;
  num_classes_ = static_cast<int>(classes);
  return Status::Ok();
}

void RandomForestRegressor::Save(TokenWriter* w) const {
  w->WriteTag("rfreg");
  SaveTrees(forest_, /*num_classes=*/0, w);
}

Status RandomForestRegressor::Load(TokenReader* r) {
  r->ExpectTag("rfreg");
  return LoadTrees(r, /*num_classes=*/0, &forest_);
}

double RandomForestRegressor::Predict(const double* x) const {
  AIMAI_CHECK(!forest_.empty());
  double sum = 0;
  forest_.AccumulateAll(x, &sum);
  return sum / static_cast<double>(forest_.num_trees());
}

}  // namespace aimai
