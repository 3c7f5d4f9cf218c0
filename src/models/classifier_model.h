#ifndef AIMAI_MODELS_CLASSIFIER_MODEL_H_
#define AIMAI_MODELS_CLASSIFIER_MODEL_H_

#include <memory>
#include <string>
#include <vector>

#include "featurize/pair_featurizer.h"
#include "ml/model.h"
#include "ml/neural_net.h"
#include "ml/random_forest.h"
#include "models/labeler.h"

namespace aimai {

/// Model families evaluated in the paper (§4.1, §6.2).
enum class ModelKind {
  kLogisticRegression,
  kRandomForest,
  kGradientBoostedTrees,
  kLightGbm,     // Histogram, leaf-wise GBDT.
  kDnn,          // Partially-connected network with skip connections.
  kHybridDnn,    // RF stacked over the DNN's last hidden layer.
};

const char* ModelKindName(ModelKind kind);

/// Per-operator-key input groups for the partially-connected DNN: group k
/// collects feature positions of operator key k across all channels.
std::vector<std::vector<int>> GroupsForFeaturizer(
    const PairFeaturizer& featurizer);

/// Hybrid DNN (§6.2.2): train the partially-connected DNN, then train a
/// Random Forest on the last hidden layer's activations. `RetrainForest`
/// implements the transfer-learning adaptation (§6.2.3): the DNN weights
/// freeze, only the stacked RF refits on new data.
class HybridDnnClassifier : public Classifier {
 public:
  HybridDnnClassifier(NeuralNetClassifier::Options dnn_options,
                      RandomForest::Options rf_options)
      : dnn_(dnn_options), rf_options_(rf_options) {}

  void Fit(const Dataset& train) override;
  void PredictProbaInto(const double* x, double* out) const override;
  /// Batched: one DNN hidden-layer pass for the whole batch, then one
  /// forest PredictBatch over the hidden activations.
  void PredictBatch(const double* rows, size_t n, size_t stride,
                    double* out) const override;

  /// Transfer learning: refit only the stacked forest on `data`.
  void RetrainForest(const Dataset& data);

  const NeuralNetClassifier& dnn() const { return dnn_; }

 private:
  Dataset HiddenDataset(const Dataset& data) const;

  NeuralNetClassifier dnn_;
  RandomForest::Options rf_options_;
  std::unique_ptr<RandomForest> rf_;
};

/// Factory with the hyper-parameters used by the benchmarks. `featurizer`
/// supplies dimensionality/groups for the DNN variants; `seed` decouples
/// repeated experiment runs.
std::unique_ptr<Classifier> MakeClassifier(ModelKind kind,
                                           const PairFeaturizer& featurizer,
                                           uint64_t seed);

}  // namespace aimai

#endif  // AIMAI_MODELS_CLASSIFIER_MODEL_H_
