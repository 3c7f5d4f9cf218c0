#include "optimizer/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace aimai {

Histogram Histogram::Build(const Column& col, int num_buckets) {
  AIMAI_CHECK(num_buckets >= 1);
  Histogram h;
  const size_t n = col.size();
  if (n == 0) {
    h.counts_.assign(static_cast<size_t>(num_buckets), 0);
    h.distincts_.assign(static_cast<size_t>(num_buckets), 0);
    return h;
  }
  std::vector<double> values;
  values.reserve(n);
  for (size_t r = 0; r < n; ++r) values.push_back(col.NumericAt(r));
  auto [mn, mx] = std::minmax_element(values.begin(), values.end());
  h.min_ = *mn;
  h.max_ = *mx;
  h.total_ = static_cast<double>(n);
  h.counts_.assign(static_cast<size_t>(num_buckets), 0);
  h.distincts_.assign(static_cast<size_t>(num_buckets), 0);

  const double width = h.BucketWidth();
  std::sort(values.begin(), values.end());
  double prev = std::numeric_limits<double>::quiet_NaN();
  for (double v : values) {
    int b = width > 0 ? static_cast<int>((v - h.min_) / width) : 0;
    b = std::max(0, std::min(num_buckets - 1, b));
    h.counts_[static_cast<size_t>(b)] += 1;
    if (v != prev) {
      h.distincts_[static_cast<size_t>(b)] += 1;
      h.distinct_total_ += 1;
      prev = v;
    }
  }
  return h;
}

double Histogram::BucketWidth() const {
  const double span = max_ - min_;
  if (span <= 0) return 0;
  return span / static_cast<double>(counts_.size());
}

double Histogram::BucketOverlap(int b, double lo, double hi) const {
  const double width = BucketWidth();
  if (width <= 0) {
    // Single-value domain: bucket fully in or out.
    return (lo <= min_ && min_ <= hi) ? 1.0 : 0.0;
  }
  const double b_lo = min_ + width * b;
  const double b_hi = b_lo + width;
  const double olo = std::max(lo, b_lo);
  const double ohi = std::min(hi, b_hi);
  if (ohi <= olo) return 0;
  return (ohi - olo) / width;
}

double Histogram::EstimateSelectivity(const NumericBounds& bounds) const {
  if (total_ <= 0) return 0;

  // Point predicate: the classic uniform-frequency assumption, sel = 1/NDV.
  // Deliberately blind to skew — a Zipf-heavy value is underestimated and
  // the tail overestimated, as in real optimizers between histogram steps.
  const bool is_point = bounds.has_lo && bounds.has_hi && !bounds.lo_open &&
                        !bounds.hi_open && bounds.lo == bounds.hi;
  if (is_point) {
    const double v = bounds.lo;
    if (v < min_ || v > max_) return 0;
    return 1.0 / std::max(1.0, distinct_total_);
  }

  // Ranges entirely outside the observed domain select nothing.
  if (bounds.has_hi && (bounds.hi < min_ || (bounds.hi_open && bounds.hi <= min_))) {
    return 0;
  }
  if (bounds.has_lo && (bounds.lo > max_ || (bounds.lo_open && bounds.lo >= max_))) {
    return 0;
  }

  double lo = bounds.has_lo ? bounds.lo : min_;
  double hi = bounds.has_hi ? bounds.hi : max_;
  // Open bounds nudge by a hair of the domain; with within-bucket
  // uniformity the open/closed distinction is below estimation noise.
  lo = std::max(lo, min_);
  hi = std::min(hi, max_);
  if (hi < lo) return 0;
  if (hi == lo) {
    NumericBounds point;
    point.has_lo = point.has_hi = true;
    point.lo = point.hi = lo;
    return EstimateSelectivity(point);
  }

  double rows = 0;
  for (int b = 0; b < num_buckets(); ++b) {
    rows += counts_[static_cast<size_t>(b)] * BucketOverlap(b, lo, hi);
  }
  return std::min(1.0, rows / total_);
}

}  // namespace aimai
