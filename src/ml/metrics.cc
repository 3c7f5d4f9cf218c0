#include "ml/metrics.h"

#include <cstdint>

#include "common/check.h"
#include "common/stats.h"
#include "common/string_util.h"

namespace aimai {

ConfusionMatrix::ConfusionMatrix(int num_classes)
    : num_classes_(num_classes),
      counts_(static_cast<size_t>(num_classes * num_classes), 0) {
  AIMAI_CHECK(num_classes >= 2);
}

void ConfusionMatrix::Add(int truth, int predicted) {
  AIMAI_CHECK(truth >= 0 && truth < num_classes_);
  AIMAI_CHECK(predicted >= 0 && predicted < num_classes_);
  counts_[static_cast<size_t>(truth * num_classes_ + predicted)] += 1;
  ++total_;
}

void ConfusionMatrix::Merge(const ConfusionMatrix& other) {
  AIMAI_CHECK(other.num_classes_ == num_classes_);
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

int64_t ConfusionMatrix::count(int truth, int predicted) const {
  return counts_[static_cast<size_t>(truth * num_classes_ + predicted)];
}

double ConfusionMatrix::Accuracy() const {
  if (total_ == 0) return 0;
  int64_t correct = 0;
  for (int c = 0; c < num_classes_; ++c) correct += count(c, c);
  return static_cast<double>(correct) / static_cast<double>(total_);
}

ClassMetrics ConfusionMatrix::ForClass(int c) const {
  ClassMetrics m;
  int64_t tp = count(c, c);
  int64_t fp = 0, fn = 0;
  for (int o = 0; o < num_classes_; ++o) {
    if (o == c) continue;
    fp += count(o, c);
    fn += count(c, o);
  }
  m.support = tp + fn;
  m.precision = (tp + fp) > 0
                    ? static_cast<double>(tp) / static_cast<double>(tp + fp)
                    : 0;
  m.recall = (tp + fn) > 0
                 ? static_cast<double>(tp) / static_cast<double>(tp + fn)
                 : 0;
  m.f1 = HarmonicMean2(m.precision, m.recall);
  return m;
}

std::string ConfusionMatrix::ToString() const {
  std::string out;
  for (int t = 0; t < num_classes_; ++t) {
    for (int p = 0; p < num_classes_; ++p) {
      out += StrFormat("%8lld", static_cast<long long>(count(t, p)));
    }
    out += "\n";
  }
  return out;
}

ConfusionMatrix Evaluate(const std::vector<int>& truth,
                         const std::vector<int>& predicted, int num_classes) {
  AIMAI_CHECK(truth.size() == predicted.size());
  ConfusionMatrix cm(num_classes);
  for (size_t i = 0; i < truth.size(); ++i) cm.Add(truth[i], predicted[i]);
  return cm;
}

}  // namespace aimai
