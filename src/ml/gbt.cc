#include "ml/gbt.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "obs/obs.h"

namespace aimai {

namespace {

DecisionTree::Options TreeOptions(const GradientBoostedTrees::Options& o,
                                  uint64_t seed) {
  DecisionTree::Options t;
  t.max_depth = o.max_depth;
  t.min_samples_leaf = o.min_samples_leaf;
  t.min_impurity_decrease = 1e-9;
  t.feature_fraction = 1.0;
  t.seed = seed;
  return t;
}

std::vector<size_t> SubsampleRows(size_t n, double fraction, Rng* rng) {
  if (fraction >= 1.0) {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }
  const size_t m = std::max<size_t>(
      1, static_cast<size_t>(fraction * static_cast<double>(n)));
  return rng->SampleWithoutReplacement(n, m);
}

}  // namespace

void GradientBoostedTrees::Fit(const Dataset& train) {
  AIMAI_SPAN("ml.gbt.fit");
  AIMAI_CHECK(train.n() > 0);
  num_classes_ = std::max(2, train.NumClasses());
  const size_t n = train.n();
  const size_t k = static_cast<size_t>(num_classes_);
  trees_.clear();
  Rng rng(options_.seed);

  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  FeatureBinner binner;
  binner.Fit(train, all, &rng);

  // Raw scores per example per class.
  std::vector<double> scores(n * k, 0.0);
  std::vector<double> residual(n);

  for (int round = 0; round < options_.num_rounds; ++round) {
    const std::vector<size_t> rows =
        SubsampleRows(n, options_.subsample, &rng);
    for (size_t c = 0; c < k; ++c) {
      // Softmax residual for class c.
      for (size_t i = 0; i < n; ++i) {
        const double* s = &scores[i * k];
        double mx = s[0];
        for (size_t j = 1; j < k; ++j) mx = std::max(mx, s[j]);
        double denom = 0;
        for (size_t j = 0; j < k; ++j) denom += std::exp(s[j] - mx);
        const double p = std::exp(s[c] - mx) / denom;
        residual[i] =
            (train.Label(i) == static_cast<int>(c) ? 1.0 : 0.0) - p;
      }
      auto tree = std::make_unique<DecisionTree>(
          TreeOptions(options_, rng.engine()()));
      tree->FitRegression(train, rows, residual, &binner);
      for (size_t i = 0; i < n; ++i) {
        scores[i * k + c] +=
            options_.learning_rate * tree->PredictValue(train.Row(i));
      }
      trees_.push_back(std::move(tree));
    }
  }
  Compile();
}

void GradientBoostedTrees::Compile() {
  compiled_.Reset(1);
  for (const auto& tree : trees_) tree->CompileInto(&compiled_);
}

void GradientBoostedTrees::PredictProbaInto(const double* x,
                                            double* out) const {
  AIMAI_SPAN("ml.gbt.predict");
  AIMAI_CHECK(!compiled_.empty());
  const size_t k = static_cast<size_t>(num_classes_);
  std::fill(out, out + k, 0.0);
  compiled_.AccumulateRoundRobin(x, k, options_.learning_rate, out);
  SoftmaxInPlace(out, k);
}

std::vector<double> GradientBoostedTrees::PredictProbaScalar(
    const double* x) const {
  const size_t k = static_cast<size_t>(num_classes_);
  std::vector<double> s(k, 0.0);
  for (size_t t = 0; t < trees_.size(); ++t) {
    s[t % k] += options_.learning_rate * trees_[t]->PredictValue(x);
  }
  SoftmaxInPlace(s.data(), k);
  return s;
}

void GradientBoostedTrees::Save(TokenWriter* w) const {
  w->WriteTag("gbt");
  w->WriteInt(num_classes_);
  w->WriteDouble(options_.learning_rate);
  w->WriteUInt(trees_.size());
  for (const auto& t : trees_) t->Save(w);
}

Status GradientBoostedTrees::Load(TokenReader* r) {
  r->ExpectTag("gbt");
  const int64_t classes = r->ReadInt();
  const double learning_rate = r->ReadDouble();
  if (!r->ok()) return r->status();
  if (classes < 2 || classes > DecisionTree::kMaxClasses) {
    return Status::DataLoss("gbt: bad class count");
  }
  std::vector<std::unique_ptr<DecisionTree>> trees;
  const Status st = LoadTrees(r, /*num_classes=*/0, &trees);
  if (!st.ok()) return st;
  num_classes_ = static_cast<int>(classes);
  options_.learning_rate = learning_rate;
  trees_ = std::move(trees);
  Compile();
  return Status::Ok();
}

void GradientBoostedTreesRegressor::Fit(const Dataset& train) {
  AIMAI_SPAN("ml.gbtreg.fit");
  AIMAI_CHECK(train.n() > 0);
  const size_t n = train.n();
  trees_.clear();
  Rng rng(options_.seed);

  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  FeatureBinner binner;
  binner.Fit(train, all, &rng);

  base_ = 0;
  for (size_t i = 0; i < n; ++i) base_ += train.Target(i);
  base_ /= static_cast<double>(n);

  std::vector<double> pred(n, base_);
  std::vector<double> residual(n);
  for (int round = 0; round < options_.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) residual[i] = train.Target(i) - pred[i];
    const std::vector<size_t> rows =
        SubsampleRows(n, options_.subsample, &rng);
    auto tree = std::make_unique<DecisionTree>(
        TreeOptions(options_, rng.engine()()));
    tree->FitRegression(train, rows, residual, &binner);
    for (size_t i = 0; i < n; ++i) {
      pred[i] += options_.learning_rate * tree->PredictValue(train.Row(i));
    }
    trees_.push_back(std::move(tree));
  }
  Compile();
}

void GradientBoostedTreesRegressor::Compile() {
  compiled_.Reset(1);
  for (const auto& tree : trees_) tree->CompileInto(&compiled_);
}

void GradientBoostedTreesRegressor::Save(TokenWriter* w) const {
  w->WriteTag("gbtreg");
  w->WriteDouble(base_);
  w->WriteDouble(options_.learning_rate);
  w->WriteUInt(trees_.size());
  for (const auto& t : trees_) t->Save(w);
}

Status GradientBoostedTreesRegressor::Load(TokenReader* r) {
  r->ExpectTag("gbtreg");
  const double base = r->ReadDouble();
  const double learning_rate = r->ReadDouble();
  if (!r->ok()) return r->status();
  std::vector<std::unique_ptr<DecisionTree>> trees;
  const Status st = LoadTrees(r, /*num_classes=*/0, &trees);
  if (!st.ok()) return st;
  base_ = base;
  options_.learning_rate = learning_rate;
  trees_ = std::move(trees);
  Compile();
  return Status::Ok();
}

double GradientBoostedTreesRegressor::Predict(const double* x) const {
  AIMAI_CHECK(!compiled_.empty());
  double out = base_;
  compiled_.AccumulateRoundRobin(x, 1, options_.learning_rate, &out);
  return out;
}

double GradientBoostedTreesRegressor::PredictScalar(const double* x) const {
  double out = base_;
  for (const auto& tree : trees_) {
    out += options_.learning_rate * tree->PredictValue(x);
  }
  return out;
}

}  // namespace aimai
