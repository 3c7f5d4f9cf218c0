#include "models/adaptive.h"

#include <algorithm>

#include "common/check.h"
#include "ml/split.h"

namespace aimai {

namespace {

RandomForest::Options LocalForestOptions(uint64_t seed) {
  RandomForest::Options o;
  o.num_trees = 40;
  o.max_depth = 16;
  o.seed = seed;
  return o;
}

}  // namespace

void AdaptiveStrategy::Fit(const Dataset& train) {
  (void)train;
  AIMAI_CHECK_MSG(false, "adaptive strategies are trained at construction");
}

void AdaptiveStrategy::PaddedProbaInto(const Classifier& model,
                                       const double* x, double* out) {
  AIMAI_CHECK(model.num_classes() <= kNumPairLabels);
  std::fill(out, out + kNumPairLabels, 0.0);
  model.PredictProbaInto(x, out);
}

OfflineStrategy::OfflineStrategy(std::shared_ptr<const Classifier> offline)
    : offline_(std::move(offline)) {
  AIMAI_CHECK(offline_ != nullptr);
}

void OfflineStrategy::PredictProbaInto(const double* x, double* out) const {
  PaddedProbaInto(*offline_, x, out);
}

LocalStrategy::LocalStrategy(const Dataset& local_train, uint64_t seed) {
  AIMAI_CHECK(local_train.n() > 0);
  local_ = std::make_unique<RandomForest>(LocalForestOptions(seed));
  local_->Fit(local_train);
}

void LocalStrategy::PredictProbaInto(const double* x, double* out) const {
  PaddedProbaInto(*local_, x, out);
}

UncertaintyStrategy::UncertaintyStrategy(
    std::shared_ptr<const Classifier> offline, const Dataset& local_train,
    uint64_t seed)
    : offline_(std::move(offline)), local_(local_train, seed) {
  AIMAI_CHECK(offline_ != nullptr);
}

void UncertaintyStrategy::PredictProbaInto(const double* x,
                                           double* out) const {
  double off[kNumPairLabels];
  double loc[kNumPairLabels];
  PaddedProbaInto(*offline_, x, off);
  local_.PredictProbaInto(x, loc);
  // Padding adds zeros, so 1 - max is each model's own Uncertainty(x);
  // local wins ties.
  double max_off = 0, max_loc = 0;
  for (double p : off) max_off = std::max(max_off, p);
  for (double p : loc) max_loc = std::max(max_loc, p);
  const double* pick = 1.0 - max_loc <= 1.0 - max_off ? loc : off;
  std::copy(pick, pick + kNumPairLabels, out);
}

NearestNeighborStrategy::NearestNeighborStrategy(
    std::shared_ptr<const Classifier> offline, const Dataset& local_train,
    uint64_t seed, double distance_threshold)
    : offline_(std::move(offline)), local_(local_train, seed),
      threshold_(distance_threshold) {
  AIMAI_CHECK(offline_ != nullptr);
  knn_.Fit(local_train);
}

void NearestNeighborStrategy::PredictProbaInto(const double* x,
                                               double* out) const {
  if (knn_.NearestDistance(x) <= threshold_) {
    local_.PredictProbaInto(x, out);
  } else {
    PaddedProbaInto(*offline_, x, out);
  }
}

std::vector<double> MetaModelStrategy::MetaFeatures(
    const double* x, const Classifier& local_model,
    const KnnIndex& knn) const {
  // Local folds may miss a class entirely; padding to the full ternary
  // label space keeps the meta features' dimensionality stable.
  double po[kNumPairLabels];
  double pl[kNumPairLabels];
  PaddedProbaInto(*offline_, x, po);
  PaddedProbaInto(local_model, x, pl);
  std::vector<double> f(po, po + kNumPairLabels);
  f.insert(f.end(), pl, pl + kNumPairLabels);
  double mo = 0, ml = 0;
  for (double v : po) mo = std::max(mo, v);
  for (double v : pl) ml = std::max(ml, v);
  f.push_back(1.0 - mo);  // Offline uncertainty.
  f.push_back(1.0 - ml);  // Local uncertainty.
  f.push_back(knn.NearestDistance(x));
  return f;
}

MetaModelStrategy::MetaModelStrategy(
    std::shared_ptr<const Classifier> offline, const Dataset& local_train,
    uint64_t seed)
    : offline_(std::move(offline)) {
  AIMAI_CHECK(offline_ != nullptr);
  AIMAI_CHECK(local_train.n() > 0);
  Rng rng(seed);

  // Cross-predicted meta training set: for each fold, a base local model
  // trained on the rest supplies the fold's meta features.
  Dataset meta_train;
  const int k = local_train.n() >= 30 ? 3 : 2;
  const std::vector<SplitIndices> folds = KFold(local_train.n(), k, &rng);
  for (const SplitIndices& fold : folds) {
    if (fold.train.empty() || fold.test.empty()) continue;
    const Dataset base_data = local_train.Subset(fold.train);
    RandomForest base(LocalForestOptions(rng.engine()()));
    base.Fit(base_data);
    KnnIndex base_knn;
    base_knn.Fit(base_data);
    for (size_t i : fold.test) {
      meta_train.Add(MetaFeatures(local_train.Row(i), base, base_knn),
                     local_train.Label(i));
    }
  }

  // Final base model and neighborhood index over all local data.
  final_local_ = std::make_unique<RandomForest>(
      LocalForestOptions(rng.engine()()));
  final_local_->Fit(local_train);
  knn_.Fit(local_train);

  if (meta_train.n() >= 4) {
    RandomForest::Options mo;
    mo.num_trees = 40;
    mo.max_depth = 8;
    mo.seed = rng.engine()();
    meta_ = std::make_unique<RandomForest>(mo);
    meta_->Fit(meta_train);
  }
  // With too little local data for stacking, Predict falls back to the
  // local model directly.
}

void MetaModelStrategy::PredictProbaInto(const double* x, double* out) const {
  if (meta_ == nullptr) {
    PaddedProbaInto(*final_local_, x, out);
    return;
  }
  const std::vector<double> f = MetaFeatures(x, *final_local_, knn_);
  PaddedProbaInto(*meta_, f.data(), out);
}

TransferHybridStrategy::TransferHybridStrategy(HybridDnnClassifier* hybrid,
                                               const Dataset& local_train)
    : hybrid_(hybrid) {
  hybrid_->RetrainForest(local_train);
}

void TransferHybridStrategy::PredictProbaInto(const double* x,
                                              double* out) const {
  PaddedProbaInto(*hybrid_, x, out);
}

}  // namespace aimai
