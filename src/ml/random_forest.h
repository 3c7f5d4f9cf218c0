#ifndef AIMAI_ML_RANDOM_FOREST_H_
#define AIMAI_ML_RANDOM_FOREST_H_

#include "ml/decision_tree.h"
#include "ml/model.h"

namespace aimai {

/// Bagging ensemble of CART trees (the paper's best offline model family).
/// Bootstrap-sampled trees with sqrt-feature subsampling; probabilities
/// are the average of leaf distributions, making `Uncertainty` a usable
/// adaptive-model signal (§4.3). The trees live only in one
/// CompiledForest: each fit grows straight into it, and Save/Load go
/// through the tree codec (SaveTrees / LoadTrees).
class RandomForest : public Classifier {
 public:
  struct Options {
    int num_trees = 80;
    int max_depth = 24;
    size_t min_samples_leaf = 1;
    double min_impurity_decrease = 1e-6;
    /// <= 0 means sqrt(d) features per split.
    double feature_fraction = -1.0;
    /// Rows per tree as a fraction of n (bootstrap with replacement).
    double bootstrap_fraction = 1.0;
    uint64_t seed = 7;
  };

  RandomForest() : RandomForest(Options()) {}
  explicit RandomForest(Options options) : options_(options) {}

  void Fit(const Dataset& train) override;
  void PredictProbaInto(const double* x, double* out) const override;

  size_t num_trees() const { return forest_.num_trees(); }
  /// Largest feature index any split reads (-1 if none).
  int MaxFeature() const { return forest_.MaxFeature(); }

  /// Persists / restores the trained ensemble (inference state). `Load`
  /// returns DataLoss on a malformed or truncated stream and then leaves
  /// the model unchanged.
  void Save(TokenWriter* w) const;
  Status Load(TokenReader* r);

 private:
  Options options_;
  CompiledForest forest_;
};

/// Random-forest regressor (used by the plan-level cost regressor
/// baseline, §6.1); its forest holds one mean per leaf.
class RandomForestRegressor : public Regressor {
 public:
  using Options = RandomForest::Options;

  RandomForestRegressor() : RandomForestRegressor(Options()) {}
  explicit RandomForestRegressor(Options options) : options_(options) {}

  void Fit(const Dataset& train) override;
  double Predict(const double* x) const override;

  /// As RandomForest::Save / Load.
  void Save(TokenWriter* w) const;
  Status Load(TokenReader* r);

 private:
  Options options_;
  CompiledForest forest_;
};

}  // namespace aimai

#endif  // AIMAI_ML_RANDOM_FOREST_H_
