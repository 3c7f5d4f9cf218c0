#ifndef AIMAI_ML_LOGISTIC_REGRESSION_H_
#define AIMAI_ML_LOGISTIC_REGRESSION_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "ml/model.h"

namespace aimai {

/// Multinomial (softmax) logistic regression trained with mini-batch
/// Adam. Features are standardized internally (mean/std learned at Fit).
/// The simplest linear learner the paper evaluates (§4.1).
class LogisticRegression : public Classifier {
 public:
  struct Options {
    int epochs = 40;
    size_t batch_size = 64;
    double learning_rate = 0.05;
    double l2 = 1e-4;
    uint64_t seed = 17;
  };

  LogisticRegression() : LogisticRegression(Options()) {}
  explicit LogisticRegression(Options options) : options_(options) {}

  void Fit(const Dataset& train) override;
  /// Zero-allocation: standardization folds into the dot product, and the
  /// softmax runs in place over `out`.
  void PredictProbaInto(const double* x, double* out) const override;

  /// `Load` returns DataLoss on a malformed or truncated stream, or on
  /// weights whose sizes disagree, and then leaves the model unchanged.
  void Save(TokenWriter* w) const;
  Status Load(TokenReader* r);

 private:
  std::vector<double> Standardize(const double* x) const;

  Options options_;
  size_t d_ = 0;
  std::vector<double> mean_;
  std::vector<double> inv_std_;
  // Weights: num_classes x (d + 1), last column is the bias.
  std::vector<double> w_;
};

}  // namespace aimai

#endif  // AIMAI_ML_LOGISTIC_REGRESSION_H_
