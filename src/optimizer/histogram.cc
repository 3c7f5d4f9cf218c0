#include "optimizer/histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <type_traits>

#include "common/check.h"
#include "common/ordered_bits.h"

namespace aimai {

namespace {

/// Open-addressing set of `OrderedBits` images (0 marks an empty slot; no
/// non-NaN value maps there), sized once for its most keys and so never
/// more than 3/4 full: a column's distinct values never grow and rehash it.
/// Slots come from the high bits of a multiplicative hash: integer-valued
/// doubles share all-zero low mantissa bits, so a low-bit hash would pile
/// them into a few clusters.
class BitsSet {
 public:
  explicit BitsSet(size_t max_keys) {
    size_t slots = 64;
    while (4 * max_keys > 3 * slots) slots *= 2;
    slots_.assign(slots, 0);
    mask_ = slots - 1;
    shift_ = 64 - std::countr_zero(slots);
  }

  /// Adds `key`; true if it was not present. Linear probe from the hashed
  /// slot.
  bool Insert(uint64_t key) {
    size_t i = static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
    for (;; i = (i + 1) & mask_) {
      uint64_t& slot = slots_[i];
      if (slot == key) return false;
      if (slot == 0) {
        slot = key;
        return true;
      }
    }
  }

 private:
  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  int shift_ = 0;
};

/// Integers of magnitude at most 2^53 convert to distinct doubles, so
/// within that range an integer column's distinct values are its distinct
/// doubles.
constexpr double kExactIntLimit = 9007199254740992.0;  // 2^53

/// True if an integer column over [min, max] may count its values in a
/// dense array: every value converts exactly and the array is no longer
/// than the column.
bool DenseCountable(double min, double max, size_t n) {
  return -kExactIntLimit <= min && max <= kExactIntLimit &&
         max - min < static_cast<double>(n) &&
         n <= std::numeric_limits<uint32_t>::max();
}

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
    using T = std::remove_cv_t<std::remove_pointer_t<decltype(data)>>;
    auto value = [data](size_t r) { return static_cast<double>(data[r]); };
    // Pass 1: the first smallest and last largest non-NaN value
    // (std::minmax_element's choice among ±0.0 ties). Integers have no NaN
    // and no signed zero, and convert monotonically, so they compare as
    // integers.
    size_t r = 0;
    double min = 0;
    double max = 0;
    if constexpr (std::is_integral_v<T>) {
      if (n == 0) return;
      T lo = data[0];
      T hi = data[0];
      for (r = 1; r < n; ++r) {
        lo = std::min(lo, data[r]);
        hi = std::max(hi, data[r]);
      }
      min = static_cast<double>(lo);
      max = static_cast<double>(hi);
    } else {
      while (r < n && std::isnan(value(r))) ++r;
      if (r == n) return;
      min = value(r);
      max = min;
      for (++r; r < n; ++r) {
        const double v = value(r);
        if (v < min) min = v;
        if (v >= max) max = v;
      }
    }
    h.min_ = min;
    h.max_ = max;
    const double width = h.BucketWidth();
    if constexpr (std::is_integral_v<T>) {
      if (DenseCountable(min, max, n)) {
        // Pass 2, dense: count each value in its slot of [min, max], then
        // bucket each distinct value once with its count. Every value
        // converts exactly, so it lands in the bucket its rows would.
        const int64_t base = static_cast<int64_t>(min);
        std::vector<uint32_t> freq(static_cast<size_t>(max - min) + 1, 0);
        for (r = 0; r < n; ++r) {
          ++freq[static_cast<size_t>(static_cast<int64_t>(data[r]) - base)];
        }
        for (size_t i = 0; i < freq.size(); ++i) {
          if (freq[i] == 0) continue;
          const double v = static_cast<double>(base + static_cast<int64_t>(i));
          const size_t b = BucketOf(v, min, width, last);
          h.counts_[b] += freq[i];
          h.distincts_[b] += 1;
          h.distinct_total_ += 1;
        }
        return;
      }
    }
    // Pass 2: every row into its bucket; a value counts as distinct, in
    // its own bucket, the first time the set sees it.
    BitsSet seen(n);
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
