#ifndef AIMAI_ML_HIST_GBT_H_
#define AIMAI_ML_HIST_GBT_H_

#include <vector>

#include "ml/compiled_forest.h"
#include "ml/decision_tree.h"
#include "ml/model.h"

namespace aimai {

/// LightGBM-style gradient boosting: histogram split finding on pre-binned
/// features, *leaf-wise* (best-first) tree growth with a leaf cap, and
/// second-order (Newton) leaf values with L2 regularization. This is the
/// "LGBM" model family in the paper's Figure 7/8/10. Trees grow straight
/// into one stride-1 CompiledForest (round-major, num_classes per round),
/// whose per-node payload also keeps each split's pre-split leaf value,
/// which the `hgbt` file layout saves.
class HistGradientBoosting : public Classifier {
 public:
  struct Options {
    int num_rounds = 60;
    int max_leaves = 31;
    double learning_rate = 0.15;
    double lambda = 1.0;          // L2 on leaf values.
    double min_child_hessian = 1.0;
    double subsample = 0.8;
    uint64_t seed = 23;
  };

  HistGradientBoosting() : HistGradientBoosting(Options()) {}
  explicit HistGradientBoosting(Options options) : options_(options) {}

  void Fit(const Dataset& train) override;
  void PredictProbaInto(const double* x, double* out) const override;

  /// `Load` returns DataLoss on a malformed or truncated stream (counts,
  /// child ids that are not later nodes of the same tree; see
  /// LoadTreeNodes) and then leaves the model unchanged.
  void Save(TokenWriter* w) const;
  Status Load(TokenReader* r);

 private:
  /// Grows one leaf-wise tree on (grad, hess) for the sampled rows and
  /// appends it to `out`.
  void GrowTree(const FeatureBinner& binner, const std::vector<size_t>& rows,
                const std::vector<double>& grad,
                const std::vector<double>& hess, CompiledForest* out) const;

  Options options_;
  CompiledForest forest_;
};

}  // namespace aimai

#endif  // AIMAI_ML_HIST_GBT_H_
