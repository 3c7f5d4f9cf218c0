#include "models/classifier_model.h"

#include "common/check.h"
#include "ml/gbt.h"
#include "ml/hist_gbt.h"
#include "ml/logistic_regression.h"

namespace aimai {

const char* ModelKindName(ModelKind kind) {
  switch (kind) {
    case ModelKind::kLogisticRegression:
      return "LR";
    case ModelKind::kRandomForest:
      return "RF";
    case ModelKind::kGradientBoostedTrees:
      return "GBT";
    case ModelKind::kLightGbm:
      return "LGBM";
    case ModelKind::kDnn:
      return "DNN";
    case ModelKind::kHybridDnn:
      return "HybridDNN";
  }
  return "?";
}

std::vector<std::vector<int>> GroupsForFeaturizer(
    const PairFeaturizer& featurizer) {
  const size_t num_channels = featurizer.plan_featurizer().channels().size();
  const bool concat = featurizer.mode() == PairCombine::kConcat;
  const size_t per_channel =
      concat ? 2 * kOperatorKeySpace : kOperatorKeySpace;
  std::vector<std::vector<int>> groups(kOperatorKeySpace);
  for (int k = 0; k < kOperatorKeySpace; ++k) {
    for (size_t c = 0; c < num_channels; ++c) {
      if (concat) {
        groups[static_cast<size_t>(k)].push_back(
            static_cast<int>(c * per_channel) + k);
        groups[static_cast<size_t>(k)].push_back(
            static_cast<int>(c * per_channel) + kOperatorKeySpace + k);
      } else {
        groups[static_cast<size_t>(k)].push_back(
            static_cast<int>(c * per_channel) + k);
      }
    }
  }
  return groups;
}

void HybridDnnClassifier::Fit(const Dataset& train) {
  num_classes_ = std::max(2, train.NumClasses());
  dnn_.Fit(train);
  rf_ = std::make_unique<RandomForest>(rf_options_);
  rf_->Fit(HiddenDataset(train));
}

Dataset HybridDnnClassifier::HiddenDataset(const Dataset& data) const {
  Dataset out(dnn_.LastHiddenDim());
  for (size_t i = 0; i < data.n(); ++i) {
    out.Add(dnn_.LastHiddenFeatures(data.Row(i)), data.Label(i),
            data.Target(i));
  }
  return out;
}

namespace {

/// Per-thread hidden-activation scratch shared by the Hybrid DNN's
/// inference paths (grows to the largest batch seen, then stays warm).
std::vector<double>& HybridHiddenScratch() {
  static thread_local std::vector<double> scratch;
  return scratch;
}

}  // namespace

void HybridDnnClassifier::PredictProbaInto(const double* x,
                                           double* out) const {
  AIMAI_CHECK(rf_ != nullptr);
  std::vector<double>& hidden = HybridHiddenScratch();
  hidden.resize(dnn_.LastHiddenDim());
  dnn_.LastHiddenBatch(x, 1, 0, hidden.data());
  rf_->PredictProbaInto(hidden.data(), out);
}

void HybridDnnClassifier::PredictBatch(const double* rows, size_t n,
                                       size_t stride, double* out) const {
  AIMAI_CHECK(rf_ != nullptr);
  const size_t hd = dnn_.LastHiddenDim();
  std::vector<double>& hidden = HybridHiddenScratch();
  hidden.resize(n * hd);
  dnn_.LastHiddenBatch(rows, n, stride, hidden.data());
  rf_->PredictBatch(hidden.data(), n, hd, out);
}

void HybridDnnClassifier::RetrainForest(const Dataset& data) {
  AIMAI_CHECK(rf_ != nullptr);
  rf_ = std::make_unique<RandomForest>(rf_options_);
  rf_->Fit(HiddenDataset(data));
}

std::unique_ptr<Classifier> MakeClassifier(ModelKind kind,
                                           const PairFeaturizer& featurizer,
                                           uint64_t seed) {
  switch (kind) {
    case ModelKind::kLogisticRegression: {
      LogisticRegression::Options o;
      o.seed = seed;
      return std::make_unique<LogisticRegression>(o);
    }
    case ModelKind::kRandomForest: {
      RandomForest::Options o;
      o.num_trees = 80;
      o.seed = seed;
      return std::make_unique<RandomForest>(o);
    }
    case ModelKind::kGradientBoostedTrees: {
      GradientBoostedTrees::Options o;
      o.seed = seed;
      return std::make_unique<GradientBoostedTrees>(o);
    }
    case ModelKind::kLightGbm: {
      HistGradientBoosting::Options o;
      o.seed = seed;
      return std::make_unique<HistGradientBoosting>(o);
    }
    case ModelKind::kDnn: {
      NeuralNetClassifier::Options o;
      o.architecture = NeuralNetClassifier::Architecture::kPartialSkip;
      o.groups = GroupsForFeaturizer(featurizer);
      o.seed = seed;
      return std::make_unique<NeuralNetClassifier>(o);
    }
    case ModelKind::kHybridDnn: {
      NeuralNetClassifier::Options dnn;
      dnn.architecture = NeuralNetClassifier::Architecture::kPartialSkip;
      dnn.groups = GroupsForFeaturizer(featurizer);
      dnn.seed = seed;
      RandomForest::Options rf;
      rf.num_trees = 50;
      rf.seed = seed ^ 0x9d;
      return std::make_unique<HybridDnnClassifier>(dnn, rf);
    }
  }
  return nullptr;
}

}  // namespace aimai
