#ifndef AIMAI_ML_GBT_H_
#define AIMAI_ML_GBT_H_

#include "ml/decision_tree.h"
#include "ml/model.h"

namespace aimai {

/// Gradient-boosted trees: multiclass classification via one regression
/// tree per class per round fitted to the softmax residual, and a
/// least-squares regressor variant (the boosting ensemble family from
/// §4.1 / §6.1). The rounds' trees live only in one stride-1
/// CompiledForest, round-major with num_classes trees per round; a fit
/// reads each new tree's outputs back through the forest's walker.
class GradientBoostedTrees : public Classifier {
 public:
  struct Options {
    int num_rounds = 60;
    int max_depth = 6;
    double learning_rate = 0.15;
    double subsample = 0.8;
    size_t min_samples_leaf = 4;
    uint64_t seed = 11;
  };

  GradientBoostedTrees() : GradientBoostedTrees(Options()) {}
  explicit GradientBoostedTrees(Options options) : options_(options) {}

  void Fit(const Dataset& train) override;
  void PredictProbaInto(const double* x, double* out) const override;

  /// `Load` returns DataLoss on a malformed or truncated stream and then
  /// leaves the model unchanged.
  void Save(TokenWriter* w) const;
  Status Load(TokenReader* r);

 private:
  Options options_;
  // Tree round * num_classes + class.
  CompiledForest forest_;
};

/// Least-squares gradient boosting (plan-pair cost-ratio regressor, §6.1).
class GradientBoostedTreesRegressor : public Regressor {
 public:
  using Options = GradientBoostedTrees::Options;

  GradientBoostedTreesRegressor()
      : GradientBoostedTreesRegressor(Options()) {}
  explicit GradientBoostedTreesRegressor(Options options)
      : options_(options) {}

  void Fit(const Dataset& train) override;
  double Predict(const double* x) const override;

  /// As GradientBoostedTrees::Save / Load.
  void Save(TokenWriter* w) const;
  Status Load(TokenReader* r);

 private:
  Options options_;
  double base_ = 0;
  CompiledForest forest_;
};

}  // namespace aimai

#endif  // AIMAI_ML_GBT_H_
