#include "exec/kernels.h"

#include <algorithm>
#include <cmath>

namespace aimai {

BoundsSpec BoundsSpec::From(const NumericBounds& b) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  BoundsSpec s;
  if ((b.has_lo && b.lo_open && b.lo == kInf) ||
      (b.has_hi && b.hi_open && b.hi == -kInf)) {
    s.lo_c = kInf;
    s.hi_c = -kInf;
    return s;
  }
  if (b.has_lo) s.lo_c = b.lo_open ? std::nextafter(b.lo, kInf) : b.lo;
  if (b.has_hi) s.hi_c = b.hi_open ? std::nextafter(b.hi, -kInf) : b.hi;
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

template <typename T>
void GatherSlotNumericT(const T* data, const uint32_t* tuples, size_t width,
                        size_t slot, size_t n, double* out) {
  const uint32_t* ids = tuples + slot;
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<double>(data[ids[i * width]]);
  }
}

template <typename T>
size_t FilterPositionsT(const T* data, const uint32_t* ids,
                        const uint32_t* pos, size_t n, const BoundsSpec& b,
                        uint32_t* out) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t p = pos[i];
    out[k] = p;
    k += static_cast<size_t>(b.Pass(static_cast<double>(data[ids[p]])));
  }
  return k;
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

void GatherSlot(const uint32_t* tuples, size_t width, size_t slot, size_t n,
                uint32_t* out) {
  const uint32_t* ids = tuples + slot;
  for (size_t i = 0; i < n; ++i) out[i] = ids[i * width];
}

void GatherSlotNumeric(const ColumnView& col, const uint32_t* tuples,
                       size_t width, size_t slot, size_t n, double* out) {
  switch (col.type) {
    case DataType::kInt64:
      GatherSlotNumericT(col.i64, tuples, width, slot, n, out);
      return;
    case DataType::kDouble:
      GatherSlotNumericT(col.f64, tuples, width, slot, n, out);
      return;
    case DataType::kString:
      GatherSlotNumericT(col.codes, tuples, width, slot, n, out);
      return;
  }
}

size_t FilterPositions(const ColumnView& col, const uint32_t* ids,
                       const uint32_t* pos, size_t n, const BoundsSpec& b,
                       uint32_t* out) {
  switch (col.type) {
    case DataType::kInt64:
      return FilterPositionsT(col.i64, ids, pos, n, b, out);
    case DataType::kDouble:
      return FilterPositionsT(col.f64, ids, pos, n, b, out);
    case DataType::kString:
      return FilterPositionsT(col.codes, ids, pos, n, b, out);
  }
  return 0;
}

void AppendPairs(const uint32_t* a, size_t aw, const uint32_t* ai,
                 const uint32_t* b, size_t bw, const uint32_t* bi, size_t n,
                 std::vector<uint32_t>* out) {
  const size_t w = aw + bw;
  const size_t old = out->size();
  out->resize(old + n * w);
  uint32_t* dst = out->data() + old;
  if (aw == 1 && bw == 1) {
    for (size_t k = 0; k < n; ++k) {
      dst[2 * k] = a[ai[k]];
      dst[2 * k + 1] = b[bi[k]];
    }
    return;
  }
  for (size_t k = 0; k < n; ++k, dst += w) {
    std::memcpy(dst, a + static_cast<size_t>(ai[k]) * aw,
                aw * sizeof(uint32_t));
    std::memcpy(dst + aw, b + static_cast<size_t>(bi[k]) * bw,
                bw * sizeof(uint32_t));
  }
}

}  // namespace aimai
