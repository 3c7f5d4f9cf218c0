#ifndef AIMAI_ML_METRICS_H_
#define AIMAI_ML_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace aimai {

/// Confusion-matrix-based evaluation (paper §7.1). Metrics are per-class
/// one-vs-rest: for a class c, examples labeled c are positives.
struct ClassMetrics {
  double precision = 0;
  double recall = 0;
  double f1 = 0;
  int64_t support = 0;  // Number of true positives + false negatives.
};

class ConfusionMatrix {
 public:
  explicit ConfusionMatrix(int num_classes);

  void Add(int truth, int predicted);

  /// Merges counts from another matrix (e.g. across cross-validation folds).
  void Merge(const ConfusionMatrix& other);

  int64_t count(int truth, int predicted) const;
  int64_t total() const { return total_; }

  double Accuracy() const;
  ClassMetrics ForClass(int c) const;

  std::string ToString() const;

 private:
  int num_classes_;
  std::vector<int64_t> counts_;  // truth * k + predicted.
  int64_t total_ = 0;
};

/// Convenience: evaluates `predicted` vs `truth` vectors.
ConfusionMatrix Evaluate(const std::vector<int>& truth,
                         const std::vector<int>& predicted, int num_classes);

}  // namespace aimai

#endif  // AIMAI_ML_METRICS_H_
