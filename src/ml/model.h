#ifndef AIMAI_ML_MODEL_H_
#define AIMAI_ML_MODEL_H_

#include <algorithm>
#include <cmath>
#include <vector>

#include "ml/dataset.h"

namespace aimai {

/// In-place softmax over s[0..k). Every classifier in this library uses
/// this exact operation order (max over all entries starting from s[0],
/// one exp/accumulate pass, one divide pass), so node-chasing and
/// compiled paths produce bit-identical probabilities.
inline void SoftmaxInPlace(double* s, size_t k) {
  double mx = s[0];
  for (size_t c = 0; c < k; ++c) mx = std::max(mx, s[c]);
  double denom = 0;
  for (size_t c = 0; c < k; ++c) {
    s[c] = std::exp(s[c] - mx);
    denom += s[c];
  }
  for (size_t c = 0; c < k; ++c) s[c] /= denom;
}

/// Abstract multiclass classifier. All classifiers in this library train on
/// a `Dataset` with integer labels and expose calibrated-ish class
/// probabilities; `Uncertainty` is 1 - max probability, the signal the
/// adaptive combiners (paper §4.3) consume.
///
/// `PredictProbaInto` is the primitive every model implements: it writes
/// num_classes() probabilities into a caller-provided buffer with no heap
/// allocation; the tree ensembles answer it from compiled
/// structure-of-arrays forests, bit-identical to their node-chasing
/// reference paths (same floating-point operation order).
class Classifier {
 public:
  virtual ~Classifier() = default;

  virtual void Fit(const Dataset& train) = 0;

  /// Writes class probabilities for one example into out[0..num_classes).
  virtual void PredictProbaInto(const double* x, double* out) const = 0;

  /// Allocating convenience wrapper around the primitive.
  std::vector<double> PredictProba(const double* x) const {
    std::vector<double> p(static_cast<size_t>(num_classes_), 0.0);
    PredictProbaInto(x, p.data());
    return p;
  }

  /// Argmax label using caller scratch (>= num_classes doubles). Ties go
  /// to the first maximal class — the tie-break every caller relies on.
  int Predict(const double* x, double* scratch) const {
    PredictProbaInto(x, scratch);
    return ArgmaxLabel(scratch, static_cast<size_t>(num_classes_));
  }

  int Predict(const double* x) const {
    double buf[kStackClasses];
    if (static_cast<size_t>(num_classes_) <= kStackClasses) {
      return Predict(x, buf);
    }
    std::vector<double> p(static_cast<size_t>(num_classes_));
    return Predict(x, p.data());
  }

  /// 1 - max class probability with caller scratch (>= num_classes).
  double UncertaintyInto(const double* x, double* scratch) const {
    PredictProbaInto(x, scratch);
    double mx = 0;
    for (size_t c = 0; c < static_cast<size_t>(num_classes_); ++c) {
      mx = std::max(mx, scratch[c]);
    }
    return 1.0 - mx;
  }

  /// 1 - max class probability: low values mean confident predictions.
  double Uncertainty(const double* x) const {
    double buf[kStackClasses];
    if (static_cast<size_t>(num_classes_) <= kStackClasses) {
      return UncertaintyInto(x, buf);
    }
    std::vector<double> p(static_cast<size_t>(num_classes_));
    return UncertaintyInto(x, p.data());
  }

  /// Argmax with first-max-wins tie-breaking over a probability row.
  static int ArgmaxLabel(const double* p, size_t k) {
    int best = 0;
    for (size_t i = 1; i < k; ++i) {
      if (p[i] > p[static_cast<size_t>(best)]) best = static_cast<int>(i);
    }
    return best;
  }

  int num_classes() const { return num_classes_; }

 protected:
  /// Stack-buffer bound for the allocation-free Predict/Uncertainty
  /// wrappers (plan-pair classification uses 3 classes).
  static constexpr size_t kStackClasses = 16;

  int num_classes_ = 0;
};

/// Abstract regressor (squared-loss).
class Regressor {
 public:
  virtual ~Regressor() = default;
  /// Trains on `train.targets()`.
  virtual void Fit(const Dataset& train) = 0;
  virtual double Predict(const double* x) const = 0;
};

}  // namespace aimai

#endif  // AIMAI_ML_MODEL_H_
