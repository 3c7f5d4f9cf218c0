#ifndef AIMAI_OPTIMIZER_HISTOGRAM_H_
#define AIMAI_OPTIMIZER_HISTOGRAM_H_

#include <cstdint>
#include <vector>

#include "exec/expression.h"
#include "storage/table.h"

namespace aimai {

/// Equi-width histogram over a column's numeric view, with per-bucket
/// distinct counts.
///
/// Selectivity estimation makes the textbook assumptions — uniformity
/// *within* a bucket and average frequency per distinct value — which hold
/// on uniform data and break on Zipf-skewed columns (a heavy hitter shares
/// its bucket with many rare values, so its frequency is underestimated
/// and the tail's overestimated). This is a deliberate fidelity choice:
/// the paper's premise is that such estimation errors make the optimizer
/// unreliable for comparing plans.
class Histogram {
 public:
  /// Builds over all rows of `col` with `num_buckets` equal-width buckets,
  /// in O(n) with no sort: one pass for min/max, then one of two counting
  /// passes. An integer or dictionary-code column spanning fewer values
  /// than it has rows (within ±2^53) counts each value in a dense array and
  /// buckets each distinct value once; any other column buckets every row
  /// and counts each value as distinct the first time a hash set sees it
  /// (-0.0 and +0.0 are one value). NaN rows count toward `row_count()`
  /// only: they are in no bucket, no distinct count and neither bound.
  static Histogram Build(const Column& col, int num_buckets);

  /// Fraction of rows satisfying `bounds` (in [0, 1]).
  double EstimateSelectivity(const NumericBounds& bounds) const;

  /// Total number of distinct values observed.
  double distinct_count() const { return distinct_total_; }
  double row_count() const { return total_; }
  double min() const { return min_; }
  double max() const { return max_; }
  int num_buckets() const { return static_cast<int>(counts_.size()); }
  /// Rows and distinct values per bucket.
  const std::vector<double>& bucket_counts() const { return counts_; }
  const std::vector<double>& bucket_distincts() const { return distincts_; }

 private:
  double BucketWidth() const;
  /// Fraction of bucket `b` overlapped by [lo, hi].
  double BucketOverlap(int b, double lo, double hi) const;

  double min_ = 0;
  double max_ = 0;
  double total_ = 0;
  double distinct_total_ = 0;
  std::vector<double> counts_;
  std::vector<double> distincts_;
};

}  // namespace aimai

#endif  // AIMAI_OPTIMIZER_HISTOGRAM_H_
