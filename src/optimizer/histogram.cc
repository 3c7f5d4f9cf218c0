#include "optimizer/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/check.h"
#include "common/ordered_bits.h"

namespace aimai {

namespace {

/// Open-addressing set of `OrderedBits` images (0 marks an empty slot; no
/// non-NaN value maps there), kept at most 3/4 full.
/// Slots come from the high bits of a multiplicative hash: integer-valued
/// doubles share all-zero low mantissa bits, so a low-bit hash would pile
/// them into a few clusters.
class BitsSet {
 public:
  /// Adds `key`; true if it was not present.
  bool Insert(uint64_t key) {
    if (4 * (size_ + 1) > 3 * slots_.size()) Grow();
    if (!Place(key, &slots_)) return false;
    ++size_;
    return true;
  }

 private:
  static constexpr size_t kInitialSlots = 64;

  /// Linear probe from the hashed slot; false if `key` is already there.
  bool Place(uint64_t key, std::vector<uint64_t>* slots) const {
    const size_t mask = slots->size() - 1;
    size_t i = static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    for (;; i = (i + 1) & mask) {
      uint64_t& slot = (*slots)[i];
      if (slot == key) return false;
      if (slot == 0) {
        slot = key;
        return true;
      }
    }
  }

  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    slots_.assign(old.empty() ? kInitialSlots : 2 * old.size(), 0);
    shift_ = 64 - std::countr_zero(slots_.size());
    for (uint64_t key : old) {
      if (key != 0) Place(key, &slots_);
    }
  }

  std::vector<uint64_t> slots_;
  int shift_ = 64;
  size_t size_ = 0;
};

/// `static_cast<int>((v - min) / width)` clamped to [0, last]. A position
/// that is not a number (an infinite value over an infinite width) goes to
/// the last bucket.
size_t BucketOf(double v, double min, double width, int last) {
  const double pos = width > 0 ? (v - min) / width : 0;
  const int b = !(pos < last) ? last : pos > 0 ? static_cast<int>(pos) : 0;
  return static_cast<size_t>(b);
}

}  // namespace

Histogram Histogram::Build(const Column& col, int num_buckets) {
  AIMAI_CHECK(num_buckets >= 1);
  Histogram h;
  const size_t n = col.size();
  h.total_ = static_cast<double>(n);
  h.counts_.assign(static_cast<size_t>(num_buckets), 0);
  h.distincts_.assign(static_cast<size_t>(num_buckets), 0);
  const int last = num_buckets - 1;
  // Counts and distincts are sums of 1.0, so they do not depend on the
  // order rows are visited in.
  VisitNumericData(col, [&](const auto* data) {
    auto value = [data](size_t r) { return static_cast<double>(data[r]); };
    // Pass 1: the first smallest and last largest non-NaN value
    // (std::minmax_element's choice among ±0.0 ties).
    size_t r = 0;
    while (r < n && std::isnan(value(r))) ++r;
    if (r == n) return;
    double min = value(r);
    double max = min;
    for (++r; r < n; ++r) {
      const double v = value(r);
      if (v < min) min = v;
      if (v >= max) max = v;
    }
    h.min_ = min;
    h.max_ = max;
    // Pass 2: every row into its bucket; a value counts as distinct, in
    // its own bucket, the first time the set sees it.
    const double width = h.BucketWidth();
    BitsSet seen;
    uint64_t prev_bits = 0;
    for (r = 0; r < n; ++r) {
      const double v = value(r);
      if (std::isnan(v)) continue;
      const size_t b = BucketOf(v, min, width, last);
      h.counts_[b] += 1;
      const uint64_t bits = OrderedBits(v);
      if (bits != prev_bits && seen.Insert(bits)) {
        h.distincts_[b] += 1;
        h.distinct_total_ += 1;
      }
      prev_bits = bits;
    }
  });
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
  // Also 0 when every row is NaN: no value was observed.
  if (total_ <= 0 || distinct_total_ <= 0) return 0;

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
