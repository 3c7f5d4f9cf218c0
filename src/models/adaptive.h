#ifndef AIMAI_MODELS_ADAPTIVE_H_
#define AIMAI_MODELS_ADAPTIVE_H_

#include <memory>
#include <vector>

#include "ml/knn.h"
#include "ml/model.h"
#include "ml/random_forest.h"
#include "models/classifier_model.h"

namespace aimai {

/// An adaptation strategy (§4.3): combines a cross-database *offline*
/// model with freshly collected *local* execution data from the database
/// being tuned. Every strategy is a plan-pair Classifier over the
/// kNumPairLabels label space, so it drops in wherever the offline model
/// does (the tuner's ModelComparator, the service's model registry).
///
/// Inner models that saw fewer classes (a local split missing a label)
/// answer through zero-padded probability rows, so a strategy's argmax is
/// exactly the inner model's own Predict. Strategies are trained at
/// construction; Fit aborts. Prediction is a pure, thread-safe function.
class AdaptiveStrategy : public Classifier {
 public:
  AdaptiveStrategy() { num_classes_ = kNumPairLabels; }

  void Fit(const Dataset& train) final;

  virtual const char* name() const = 0;

 protected:
  /// Writes `model`'s probabilities for `x` into out[0..kNumPairLabels),
  /// zero-padding classes the model never saw.
  static void PaddedProbaInto(const Classifier& model, const double* x,
                              double* out);
};

/// No adaptation: use the offline model as-is (the baseline in Fig. 10).
class OfflineStrategy : public AdaptiveStrategy {
 public:
  explicit OfflineStrategy(std::shared_ptr<const Classifier> offline);
  void PredictProbaInto(const double* x, double* out) const override;
  const char* name() const override { return "Offline"; }

 private:
  std::shared_ptr<const Classifier> offline_;
};

/// Local model only: a lightweight forest trained on the local data,
/// ignoring the offline model entirely.
class LocalStrategy : public AdaptiveStrategy {
 public:
  LocalStrategy(const Dataset& local_train, uint64_t seed);
  void PredictProbaInto(const double* x, double* out) const override;
  const char* name() const override { return "Local"; }

  const Classifier* local_model() const { return local_.get(); }

 private:
  std::unique_ptr<RandomForest> local_;
};

/// Uncertainty-based combination: query both models, trust the one with
/// the lower uncertainty score (1 - max class probability), local winning
/// ties.
class UncertaintyStrategy : public AdaptiveStrategy {
 public:
  UncertaintyStrategy(std::shared_ptr<const Classifier> offline,
                      const Dataset& local_train, uint64_t seed);
  void PredictProbaInto(const double* x, double* out) const override;
  const char* name() const override { return "Uncertainty"; }

 private:
  std::shared_ptr<const Classifier> offline_;
  LocalStrategy local_;
};

/// Nearest-neighbor-based combination: if the test point has a local
/// training point within `distance_threshold` (cosine), trust the local
/// model; otherwise the offline one.
class NearestNeighborStrategy : public AdaptiveStrategy {
 public:
  NearestNeighborStrategy(std::shared_ptr<const Classifier> offline,
                          const Dataset& local_train, uint64_t seed,
                          double distance_threshold = 0.05);
  void PredictProbaInto(const double* x, double* out) const override;
  const char* name() const override { return "NearestNeighbor"; }

 private:
  std::shared_ptr<const Classifier> offline_;
  LocalStrategy local_;
  KnnIndex knn_;
  double threshold_;
};

/// Meta model (§4.3): a stacked forest over both models' class
/// probabilities, their uncertainties, and the local-neighborhood
/// distance, trained on the local data with fold-wise cross-prediction so
/// the meta learner never sees its base local model's training residue.
class MetaModelStrategy : public AdaptiveStrategy {
 public:
  MetaModelStrategy(std::shared_ptr<const Classifier> offline,
                    const Dataset& local_train, uint64_t seed);
  void PredictProbaInto(const double* x, double* out) const override;
  const char* name() const override { return "Meta"; }

  /// The stacked forest; null when the local data was too small for
  /// stacking (prediction then falls back to local_model()).
  const Classifier* meta_model() const { return meta_.get(); }
  /// Base forest over all local data.
  const Classifier* local_model() const { return final_local_.get(); }
  /// The meta_model() input row for `x`.
  std::vector<double> MetaFeatures(const double* x) const {
    return MetaFeatures(x, *final_local_, knn_);
  }

 private:
  std::vector<double> MetaFeatures(const double* x,
                                   const Classifier& local_model,
                                   const KnnIndex& knn) const;

  std::shared_ptr<const Classifier> offline_;
  std::unique_ptr<RandomForest> final_local_;
  KnnIndex knn_;
  std::unique_ptr<RandomForest> meta_;
};

/// Transfer learning with the Hybrid DNN (§6.2.3): the DNN's hidden
/// layers stay frozen; the stacked forest refits on offline + local data.
class TransferHybridStrategy : public AdaptiveStrategy {
 public:
  /// `hybrid` must outlive the strategy; its forest is retrained on
  /// `local_train` at construction.
  TransferHybridStrategy(HybridDnnClassifier* hybrid,
                         const Dataset& local_train);
  void PredictProbaInto(const double* x, double* out) const override;
  const char* name() const override { return "HybridDNN"; }

 private:
  HybridDnnClassifier* hybrid_;
};

}  // namespace aimai

#endif  // AIMAI_MODELS_ADAPTIVE_H_
