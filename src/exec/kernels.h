#ifndef AIMAI_EXEC_KERNELS_H_
#define AIMAI_EXEC_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "exec/batch.h"
#include "exec/expression.h"

namespace aimai {

/// Closed form of NumericBounds for the batch filter kernels: a row passes
/// iff `!(x < lo_c) & !(x > hi_c)`, two compares and no per-bound flags.
/// `From` folds each bound's presence and openness into its constant —
/// an absent bound is -inf / +inf, an open one steps to the adjacent
/// double (`x <= lo` is `x < nextafter(lo, +inf)` for every non-NaN x) —
/// so `Pass` equals `NumericBounds::Contains` bit-for-bit, NaN included
/// (NaN compares false against both ends and passes every bound, exactly
/// as in the row engine). An open bound at the far infinity (x <= +inf,
/// x >= -inf) has no adjacent double; it rejects every non-NaN x, which
/// the empty interval lo_c = +inf, hi_c = -inf also does.
struct BoundsSpec {
  double lo_c = -std::numeric_limits<double>::infinity();
  double hi_c = std::numeric_limits<double>::infinity();

  static BoundsSpec From(const NumericBounds& b);

  bool Pass(double x) const {
    return static_cast<bool>(static_cast<uint32_t>(!(x < lo_c)) &
                             static_cast<uint32_t>(!(x > hi_c)));
  }
};

/// Dense filter over rows [begin, end): writes passing row ids to `out`,
/// returns how many passed. Branch-free compaction: each iteration writes
/// unconditionally and bumps the cursor by the predicate mask.
template <typename T>
size_t FilterDenseT(const T* data, uint32_t begin, uint32_t end,
                    const BoundsSpec& b, uint32_t* out) {
  size_t k = 0;
  for (uint32_t r = begin; r < end; ++r) {
    out[k] = r;
    k += static_cast<size_t>(b.Pass(static_cast<double>(data[r])));
  }
  return k;
}

/// Gather filter over a selection vector. Safe in place (out == ids): the
/// write cursor never outruns the read cursor.
template <typename T>
size_t FilterGatherT(const T* data, const uint32_t* ids, size_t n,
                     const BoundsSpec& b, uint32_t* out) {
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = ids[i];
    out[k] = r;
    k += static_cast<size_t>(b.Pass(static_cast<double>(data[r])));
  }
  return k;
}

/// Typed dispatch wrappers (one type switch per chunk, not per cell).
size_t FilterDense(const ColumnView& col, uint32_t begin, uint32_t end,
                   const BoundsSpec& b, uint32_t* out);
size_t FilterGather(const ColumnView& col, const uint32_t* ids, size_t n,
                    const BoundsSpec& b, uint32_t* out);

/// Writes begin, begin+1, ..., begin+n-1 into `out`.
void Iota(uint32_t* out, uint32_t begin, size_t n);

/// Sequential gather-accumulate sweep over selected rows, in id order, for
/// one aggregate column: `*sum += v; *mn = min(*mn, v); *mx = max(*mx, v)`
/// per row. Accumulation order and operations match the row engine's
/// AggregateRows exactly, so results are FP-bit-identical; callers carry
/// the accumulators across chunks rather than combining partial sums.
void AccumulateNumeric(const ColumnView& col, const uint32_t* ids, size_t n,
                       double* sum, double* mn, double* mx);

/// Grouped variant: row i accumulates into slot `grp[i] * stride + offset`
/// of the sums/mins/maxs arrays; a null array is not accumulated. Per slot,
/// updates land for rows in id order — the identical sequence the row
/// engine's per-row aggregate loop produces — so grouped sums stay
/// FP-bit-identical.
void AccumulateNumericGrouped(const ColumnView& col, const uint32_t* ids,
                              const uint32_t* grp, size_t n, size_t stride,
                              size_t offset, double* sums, double* mins,
                              double* maxs);

/// Gathers the numeric view of selected cells into a dense output array.
void GatherNumeric(const ColumnView& col, const uint32_t* ids, size_t n,
                   double* out);

// ---------------------------------------------------------------------------
// Multi-table kernels. Intermediate relations are row-major flat tuples of
// `width` base-table row ids (RowSet); a column of one table is read
// through the row ids in that table's slot.

/// `out[i] = tuples[i * width + slot]` for i in [0, n): one slot's row ids.
void GatherSlot(const uint32_t* tuples, size_t width, size_t slot, size_t n,
                uint32_t* out);

/// Slot-aware typed gather: the numeric view of `col` at the row id in
/// `slot` of each of the n tuples.
void GatherSlotNumeric(const ColumnView& col, const uint32_t* tuples,
                       size_t width, size_t slot, size_t n, double* out);

/// Position filter: keeps the positions `pos[i]` whose row `ids[pos[i]]`
/// passes `b`, in order. Safe in place (out == pos). Multi-table filters
/// compact tuple positions, not row ids.
size_t FilterPositions(const ColumnView& col, const uint32_t* ids,
                       const uint32_t* pos, size_t n, const BoundsSpec& b,
                       uint32_t* out);

/// Appends, for each k in [0, n), the tuple `a + ai[k] * aw` followed by
/// the tuple `b + bi[k] * bw` to `out`: join output materialized from
/// match pairs.
void AppendPairs(const uint32_t* a, size_t aw, const uint32_t* ai,
                 const uint32_t* b, size_t bw, const uint32_t* bi, size_t n,
                 std::vector<uint32_t>* out);

/// Hash-join directory: open addressing over the distinct build keys, each
/// slot heading a chain threaded through `next` (one link per build
/// tuple). Inserting at the chain head makes a walk visit equal keys newest
/// first — the order `std::unordered_multimap::equal_range` yields after
/// in-order inserts. Keys compare as doubles, so -0.0 meets +0.0 (both hash
/// as +0.0) and NaN meets nothing (callers never insert it). Both engines
/// build their hash joins on it; the batch engine also screens each probe
/// chunk through a one-hash bit filter (32 bits per directory slot) before
/// walking the directory, so most probes that meet nothing stop there.
class JoinDirectory {
 public:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  explicit JoinDirectory(size_t n) : next_(n, kNone) {
    size_t cap = 16;
    int bits = 4;
    while (cap < 2 * n) {
      cap <<= 1;
      ++bits;
    }
    keys_.resize(cap);
    heads_.assign(cap, kNone);
    mask_ = cap - 1;
    shift_ = 64 - bits;
    filter_.assign(cap / 2, 0);  // 32 filter bits per slot.
    filter_shift_ = 64 - (bits + 5);
  }

  void Insert(double key, uint32_t t) {
    const uint64_t bits = Bits(key);
    size_t s = Home(bits);
    while (heads_[s] != kNone && keys_[s] != key) s = (s + 1) & mask_;
    keys_[s] = key;
    next_[t] = heads_[s];
    heads_[s] = t;
    const size_t f = FilterBit(bits);
    filter_[f >> 6] |= uint64_t{1} << (f & 63);
  }

  /// Newest tuple inserted with `key`, or kNone.
  uint32_t Find(double key) const {
    for (size_t s = Home(Bits(key)); heads_[s] != kNone; s = (s + 1) & mask_) {
      if (keys_[s] == key) return heads_[s];
    }
    return kNone;
  }

  uint32_t Next(uint32_t t) const { return next_[t]; }

  /// Writes to `out` the positions i in [0, n), in order, whose key may
  /// have been inserted: every one that was, plus a few that were not.
  /// Branch-free compaction, like the filter kernels.
  size_t MayContain(const double* keys, size_t n, uint32_t* out) const {
    size_t k = 0;
    for (size_t i = 0; i < n; ++i) {
      const size_t f = FilterBit(Bits(keys[i]));
      out[k] = static_cast<uint32_t>(i);
      k += static_cast<size_t>((filter_[f >> 6] >> (f & 63)) & 1);
    }
    return k;
  }

 private:
  static uint64_t Bits(double key) {
    if (key == 0) key = 0.0;
    uint64_t bits;
    std::memcpy(&bits, &key, sizeof(bits));
    return bits;
  }
  size_t Home(uint64_t bits) const {
    return static_cast<size_t>((bits * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  size_t FilterBit(uint64_t bits) const {
    return static_cast<size_t>((bits * 0xC2B2AE3D27D4EB4FULL) >>
                               filter_shift_);
  }

  std::vector<double> keys_;
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> next_;
  std::vector<uint64_t> filter_;
  size_t mask_ = 0;
  int shift_ = 0;
  int filter_shift_ = 0;
};

}  // namespace aimai

#endif  // AIMAI_EXEC_KERNELS_H_
