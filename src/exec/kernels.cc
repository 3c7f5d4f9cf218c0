#include "exec/kernels.h"

#include <algorithm>

namespace aimai {

BoundsSpec BoundsSpec::From(const NumericBounds& b) {
  BoundsSpec s;
  s.lo = b.lo;
  s.hi = b.hi;
  s.check_lo = b.has_lo ? 1u : 0u;
  s.check_hi = b.has_hi ? 1u : 0u;
  s.lo_open = b.lo_open ? 1u : 0u;
  s.hi_open = b.hi_open ? 1u : 0u;
  return s;
}

size_t FilterDense(const ColumnView& col, uint32_t begin, uint32_t end,
                   const BoundsSpec& b, uint32_t* out) {
  switch (col.type) {
    case DataType::kInt64:
      return FilterDenseT(col.i64, begin, end, b, out);
    case DataType::kDouble:
      return FilterDenseT(col.f64, begin, end, b, out);
    case DataType::kString:
      return FilterDenseT(col.codes, begin, end, b, out);
  }
  return 0;
}

size_t FilterGather(const ColumnView& col, const uint32_t* ids, size_t n,
                    const BoundsSpec& b, uint32_t* out) {
  switch (col.type) {
    case DataType::kInt64:
      return FilterGatherT(col.i64, ids, n, b, out);
    case DataType::kDouble:
      return FilterGatherT(col.f64, ids, n, b, out);
    case DataType::kString:
      return FilterGatherT(col.codes, ids, n, b, out);
  }
  return 0;
}

void Iota(uint32_t* out, uint32_t begin, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = begin + static_cast<uint32_t>(i);
}

namespace {

template <typename T>
void AccumulateNumericT(const T* data, const uint32_t* ids, size_t n,
                        double* sum, double* mn, double* mx) {
  double s = *sum, lo = *mn, hi = *mx;
  for (size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(data[ids[i]]);
    s += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  *sum = s;
  *mn = lo;
  *mx = hi;
}

template <typename T, typename Op>
void AccumulateGroupedT(const T* data, const uint32_t* ids,
                        const uint32_t* grp, size_t n, size_t stride,
                        size_t offset, double* acc, Op op) {
  for (size_t i = 0; i < n; ++i) {
    const double v = static_cast<double>(data[ids[i]]);
    const size_t slot = static_cast<size_t>(grp[i]) * stride + offset;
    acc[slot] = op(acc[slot], v);
  }
}

// One sweep per requested accumulator: a slot's chain of dependent
// updates is then one operation long rather than three.
template <typename T>
void AccumulateNumericGroupedT(const T* data, const uint32_t* ids,
                               const uint32_t* grp, size_t n, size_t stride,
                               size_t offset, double* sums, double* mins,
                               double* maxs) {
  if (sums != nullptr) {
    AccumulateGroupedT(data, ids, grp, n, stride, offset, sums,
                       [](double a, double v) { return a + v; });
  }
  if (mins != nullptr) {
    AccumulateGroupedT(data, ids, grp, n, stride, offset, mins,
                       [](double a, double v) { return std::min(a, v); });
  }
  if (maxs != nullptr) {
    AccumulateGroupedT(data, ids, grp, n, stride, offset, maxs,
                       [](double a, double v) { return std::max(a, v); });
  }
}

template <typename T>
void GatherNumericT(const T* data, const uint32_t* ids, size_t n,
                    double* out) {
  for (size_t i = 0; i < n; ++i) out[i] = static_cast<double>(data[ids[i]]);
}

}  // namespace

void AccumulateNumeric(const ColumnView& col, const uint32_t* ids, size_t n,
                       double* sum, double* mn, double* mx) {
  switch (col.type) {
    case DataType::kInt64:
      AccumulateNumericT(col.i64, ids, n, sum, mn, mx);
      return;
    case DataType::kDouble:
      AccumulateNumericT(col.f64, ids, n, sum, mn, mx);
      return;
    case DataType::kString:
      AccumulateNumericT(col.codes, ids, n, sum, mn, mx);
      return;
  }
}

void AccumulateNumericGrouped(const ColumnView& col, const uint32_t* ids,
                              const uint32_t* grp, size_t n, size_t stride,
                              size_t offset, double* sums, double* mins,
                              double* maxs) {
  switch (col.type) {
    case DataType::kInt64:
      AccumulateNumericGroupedT(col.i64, ids, grp, n, stride, offset, sums,
                                mins, maxs);
      return;
    case DataType::kDouble:
      AccumulateNumericGroupedT(col.f64, ids, grp, n, stride, offset, sums,
                                mins, maxs);
      return;
    case DataType::kString:
      AccumulateNumericGroupedT(col.codes, ids, grp, n, stride, offset,
                                sums, mins, maxs);
      return;
  }
}

void GatherNumeric(const ColumnView& col, const uint32_t* ids, size_t n,
                   double* out) {
  switch (col.type) {
    case DataType::kInt64:
      GatherNumericT(col.i64, ids, n, out);
      return;
    case DataType::kDouble:
      GatherNumericT(col.f64, ids, n, out);
      return;
    case DataType::kString:
      GatherNumericT(col.codes, ids, n, out);
      return;
  }
}

}  // namespace aimai
