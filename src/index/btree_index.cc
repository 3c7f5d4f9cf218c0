#include "index/btree_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <type_traits>
#include <utility>

#include "catalog/database.h"
#include "common/check.h"
#include "common/ordered_bits.h"
#include "obs/obs.h"

namespace aimai {

int CompareKeys(const IndexKey& a, const IndexKey& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < b[i]) return -1;
    if (a[i] > b[i]) return 1;
  }
  // A shorter key is a prefix: equal on the shared prefix.
  return 0;
}

namespace {

/// Compares a full key of `width` components against a prefix bound: only
/// the bound's length participates.
int ComparePrefix(const double* key, size_t width, const IndexKey& bound) {
  for (size_t i = 0; i < bound.size(); ++i) {
    AIMAI_CHECK(i < width);
    if (key[i] < bound[i]) return -1;
    if (key[i] > bound[i]) return 1;
  }
  return 0;
}

/// First position in [lo, hi) where the monotone predicate (true, then
/// false over sorted keys) turns false; hi if it never does.
template <typename Pred>
size_t FirstFalse(size_t lo, size_t hi, Pred pred) {
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

/// Stable LSD radix sort of the parallel arrays `keys` and `rows` by key,
/// one byte per pass; passes whose byte is the same for every key are
/// skipped (small integer domains touch only a few of the eight).
void RadixSort(std::vector<uint64_t>* keys, std::vector<uint32_t>* rows) {
  const size_t n = keys->size();
  AIMAI_CHECK(rows->size() == n);
  if (n < 2) return;
  std::array<std::array<uint32_t, 256>, 8> counts{};
  for (const uint64_t key : *keys) {
    for (size_t d = 0; d < 8; ++d) ++counts[d][(key >> (8 * d)) & 0xff];
  }
  std::vector<uint64_t> key_scratch(n);
  std::vector<uint32_t> row_scratch(n);
  uint64_t* src_keys = keys->data();
  uint32_t* src_rows = rows->data();
  uint64_t* dst_keys = key_scratch.data();
  uint32_t* dst_rows = row_scratch.data();
  for (size_t d = 0; d < 8; ++d) {
    std::array<uint32_t, 256>& offset = counts[d];
    const int shift = static_cast<int>(8 * d);
    if (offset[(src_keys[0] >> shift) & 0xff] == n) continue;
    uint32_t sum = 0;
    for (uint32_t& c : offset) {
      const uint32_t here = c;
      c = sum;
      sum += here;
    }
    for (size_t i = 0; i < n; ++i) {
      const uint64_t key = src_keys[i];
      const uint32_t to = offset[(key >> shift) & 0xff]++;
      dst_keys[to] = key;
      dst_rows[to] = src_rows[i];
    }
    std::swap(src_keys, dst_keys);
    std::swap(src_rows, dst_rows);
  }
  if (src_keys != keys->data()) {
    keys->swap(key_scratch);
    rows->swap(row_scratch);
  }
}

/// The values [lo, lo + span] a count array over an integer column covers.
struct DenseDomain {
  int64_t lo = 0;
  size_t span = 0;
};

/// The dense domain of integer values `v[0, n)` (int64 or dictionary
/// codes): set when n > 0, every value lies within ±2^53 (where integer
/// order is double order and distinct integers stay distinct doubles) and
/// max - min is at most `BTreeIndex::kDenseSpanPerRow * n`.
template <typename T>
std::optional<DenseDomain> DenseDomainOf(const T* v, size_t n) {
  if (n == 0) return std::nullopt;
  const auto [mn, mx] = std::minmax_element(v, v + n);
  const int64_t lo = *mn;
  const int64_t hi = *mx;
  constexpr int64_t kExact = int64_t{1} << 53;
  if (lo < -kExact || hi > kExact) return std::nullopt;
  const auto span = static_cast<size_t>(hi - lo);
  if (span > BTreeIndex::kDenseSpanPerRow * n) return std::nullopt;
  return DenseDomain{lo, span};
}

/// Calls `fn(row)` for each row id of `order`, or for 0..n-1 when `order`
/// is empty (row-id order).
template <typename Fn>
void ForEachRow(const std::vector<uint32_t>& order, size_t n, Fn fn) {
  if (order.empty()) {
    for (size_t r = 0; r < n; ++r) fn(static_cast<uint32_t>(r));
  } else {
    for (uint32_t r : order) fn(r);
  }
}

/// One stable counting-sort pass: the rows of `order` ordered by `v[row]`.
/// When `keys` is set, the sorted keys go to `keys[i * stride]`, filled
/// sequentially from the value counts.
template <typename T>
std::vector<uint32_t> CountingPass(const T* v, DenseDomain d,
                                   const std::vector<uint32_t>& order,
                                   size_t n, double* keys, size_t stride) {
  std::vector<uint32_t> next(d.span + 1, 0);
  auto slot = [&](uint32_t r) { return static_cast<size_t>(v[r] - d.lo); };
  ForEachRow(order, n, [&](uint32_t r) { ++next[slot(r)]; });
  uint32_t sum = 0;
  for (uint32_t& c : next) {
    const uint32_t here = c;
    c = sum;
    sum += here;
  }
  std::vector<uint32_t> out(n);
  ForEachRow(order, n, [&](uint32_t r) { out[next[slot(r)]++] = r; });
  if (keys != nullptr) {
    // next[k] is now the end of value lo + k's run.
    size_t i = 0;
    for (size_t k = 0; k <= d.span; ++k) {
      const auto key = static_cast<double>(d.lo + static_cast<int64_t>(k));
      for (; i < next[k]; ++i) keys[i * stride] = key;
    }
  }
  return out;
}

/// One stable radix pass: the rows of `order` ordered by the
/// order-preserving bits of `v[row]`.
template <typename T>
std::vector<uint32_t> RadixPass(const T* v, const std::vector<uint32_t>& order,
                                size_t n) {
  std::vector<uint64_t> keys(n);
  std::vector<uint32_t> rows(n);
  size_t i = 0;
  ForEachRow(order, n, [&](uint32_t r) {
    keys[i] = OrderedBits(static_cast<double>(v[r]));
    rows[i++] = r;
  });
  RadixSort(&keys, &rows);
  return rows;
}

/// One stable pass by a single bucket split: the rows of `order` ordered
/// by the order-preserving bits of `v[row]`, or nullopt when some bucket
/// would hold more than `BTreeIndex::kMaxBucketEntries` rows. When `keys`
/// is set, the sorted keys go to `keys[i * stride]`.
///
/// Finite values fall into n equal slices of [min, max]. The slice map is
/// monotone, so an earlier bucket holds only smaller values; -inf and
/// negative NaNs go to a bucket before the slices, +inf and positive NaNs
/// to one after them. The scatter keeps input order within a bucket, and
/// one stable insertion sort by bits over the whole sequence finishes it:
/// its shifts stay inside a bucket, so they cost at most
/// `kMaxBucketEntries` per row. The result never depends on the slice
/// map, only the cost does.
template <typename T>
std::optional<std::vector<uint32_t>> BucketPass(
    const T* v, const std::vector<uint32_t>& order, size_t n, double* keys,
    size_t stride) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (size_t r = 0; r < n; ++r) {
    const auto x = static_cast<double>(v[r]);
    if (std::isfinite(x)) {
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
  }
  // Halves keep the width finite out to ±DBL_MAX. A width too narrow to
  // scale (or no finite value at all) puts every finite value in one
  // slice.
  const size_t slices = std::max<size_t>(n, 1);
  const double half_lo = lo * 0.5;
  double scale = hi > lo ? static_cast<double>(slices) / (hi * 0.5 - half_lo)
                         : 0.0;
  if (!std::isfinite(scale)) scale = 0.0;
  auto bucket = [&](double x) -> size_t {
    if (x >= lo && x <= hi) {
      const auto slice = static_cast<size_t>((x * 0.5 - half_lo) * scale);
      return 1 + std::min(slice, slices - 1);
    }
    return std::signbit(x) ? 0 : slices + 1;
  };

  // start[b + 1] counts bucket b, then prefix sums make start[b] its
  // first position.
  std::vector<uint32_t> start(slices + 3, 0);
  ForEachRow(order, n, [&](uint32_t r) {
    ++start[bucket(static_cast<double>(v[r])) + 1];
  });
  for (size_t b = 1; b < start.size(); ++b) {
    if (start[b] > BTreeIndex::kMaxBucketEntries) return std::nullopt;
    start[b] += start[b - 1];
  }
  // The values themselves are scattered (a contiguous key column is
  // written in place) and compared by their bits.
  std::vector<double> scratch;
  double* vals = keys;
  if (keys == nullptr || stride != 1) {
    scratch.resize(n);
    vals = scratch.data();
  }
  std::vector<uint32_t> rows(n);
  ForEachRow(order, n, [&](uint32_t r) {
    const auto x = static_cast<double>(v[r]);
    const uint32_t to = start[bucket(x)]++;
    vals[to] = x;
    rows[to] = r;
  });
  // `top` is the largest image in vals[0, i).
  uint64_t top = n > 0 ? OrderedBits(vals[0]) : 0;
  for (size_t i = 1; i < n; ++i) {
    const double x = vals[i];
    const uint64_t key = OrderedBits(x);
    if (top <= key) {
      top = key;
      continue;
    }
    const uint32_t row = rows[i];
    size_t j = i;
    do {
      vals[j] = vals[j - 1];
      rows[j] = rows[j - 1];
    } while (--j > 0 && OrderedBits(vals[j - 1]) > key);
    vals[j] = x;
    rows[j] = row;
  }
  if (keys != nullptr && vals != keys) {
    for (size_t i = 0; i < n; ++i) keys[i * stride] = vals[i];
  }
  return rows;
}

}  // namespace

BTreeIndex::BTreeIndex(const Database& db, const IndexDef& def)
    : table_id_(def.table_id),
      key_columns_(def.key_columns),
      width_(key_columns_.size()) {
  AIMAI_CHECK(!def.is_columnstore);
  AIMAI_CHECK(width_ > 0);
  const Table& table = db.table(table_id_);
  const size_t n = table.num_rows();
  auto key_column = [&](size_t c) -> const Column& {
    return table.column(static_cast<size_t>(key_columns_[c]));
  };

  // Entry order: (key, row id) ascending, every key column compared by its
  // order-preserving bits — a total order, so any correct sort yields the
  // one sequence. LSD: one stable pass per key column, last column first,
  // starting from row-id order (an empty `rows_`). On NaN-free keys this
  // is the double order.
  keys_.resize(width_ * n);
  bool lead_keys_filled = false;
  for (size_t c = width_; c-- > 0;) {
    double* keys = c == 0 ? keys_.data() : nullptr;
    VisitNumericData(key_column(c), [&](const auto* v) {
      if constexpr (std::is_integral_v<std::remove_cvref_t<decltype(*v)>>) {
        if (const std::optional<DenseDomain> d = DenseDomainOf(v, n)) {
          rows_ = CountingPass(v, *d, rows_, n, keys, width_);
          lead_keys_filled = keys != nullptr;
          return;
        }
      }
      if (std::optional<std::vector<uint32_t>> sorted =
              BucketPass(v, rows_, n, keys, width_)) {
        rows_ = std::move(*sorted);
        lead_keys_filled = keys != nullptr;
        return;
      }
      AIMAI_COUNTER_INC("index.radix_fallbacks");
      rows_ = RadixPass(v, rows_, n);
    });
  }

  for (size_t c = lead_keys_filled ? 1 : 0; c < width_; ++c) {
    VisitNumericData(key_column(c), [&](const auto* v) {
      for (size_t i = 0; i < n; ++i) {
        keys_[i * width_ + c] = static_cast<double>(v[rows_[i]]);
      }
    });
  }
}

int BTreeIndex::height() const {
  int h = 1;
  for (size_t nodes = CeilDiv(rows_.size(), kLeafCapacity); nodes > 1;
       nodes = CeilDiv(nodes, kInternalCapacity)) {
    ++h;
  }
  return h;
}

std::pair<size_t, size_t> BTreeIndex::Bounds(const KeyRange& range) const {
  // Prefix comparison against a bound is monotone over the sorted keys, so
  // each edge is one binary search.
  const size_t n = rows_.size();
  size_t begin = 0;
  if (range.has_lower) {
    begin = FirstFalse(0, n, [&](size_t i) {
      const int c = ComparePrefix(KeyAt(i), width_, range.lower);
      return range.lower_open ? c <= 0 : c < 0;
    });
  }
  size_t end = n;
  if (range.has_upper) {
    end = FirstFalse(begin, n, [&](size_t i) {
      const int c = ComparePrefix(KeyAt(i), width_, range.upper);
      return range.upper_open ? c < 0 : c <= 0;
    });
  }
  return {begin, end};
}

std::span<const uint32_t> BTreeIndex::Seek(const KeyRange& range) const {
  const auto [begin, end] = Bounds(range);
  return {rows_.data() + begin, end - begin};
}

std::span<const uint32_t> BTreeIndex::SeekEqual(double key) const {
  size_t cursor = 0;
  return SeekEqual(key, &cursor);
}

std::span<const uint32_t> BTreeIndex::SeekEqual(double key,
                                                size_t* cursor) const {
  if (std::isnan(key)) return {};
  // Search on the leading column's order-preserving bits, the order every
  // entry sequence was sorted by. NaN entries map outside every non-NaN
  // image.
  const uint64_t target = OrderedBits(key);
  auto lead = [this](size_t i) { return OrderedBits(keys_[i * width_]); };
  const size_t n = rows_.size();
  // Narrows [lo, hi) to hold the first entry where `pred` turns false,
  // given it holds at lo - 1: up to kGallopSteps doubling steps.
  constexpr int kGallopSteps = 6;
  auto gallop = [n](size_t* lo, size_t* hi, auto pred) {
    size_t step = 1;
    for (int g = 0; g < kGallopSteps && *lo < n; ++g, step <<= 1) {
      const size_t probe = std::min(*lo + step - 1, n - 1);
      if (!pred(probe)) {
        *hi = probe + 1;
        return;
      }
      *lo = probe + 1;
    }
  };
  auto below = [&](size_t i) { return lead(i) < target; };
  auto equal = [&](size_t i) { return lead(i) == target; };
  size_t lo = std::min(*cursor, n);
  size_t hi = n;
  if (lo > 0) gallop(&lo, &hi, below);
  const size_t begin = FirstFalse(lo, hi, below);
  lo = begin;
  hi = n;
  gallop(&lo, &hi, equal);
  const size_t end = FirstFalse(lo, hi, equal);
  *cursor = end;
  return {rows_.data() + begin, end - begin};
}

std::vector<uint32_t> BTreeIndex::SeekRange(const KeyRange& range) const {
  const std::span<const uint32_t> hits = Seek(range);
  return {hits.begin(), hits.end()};
}

size_t BTreeIndex::CountLeafPages(const KeyRange& range) const {
  const auto [begin, end] = Bounds(range);
  if (begin == end) return 0;
  return (end - 1) / kLeafCapacity - begin / kLeafCapacity + 1;
}

}  // namespace aimai
