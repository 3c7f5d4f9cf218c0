#include "index/btree_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <numeric>

#include "catalog/database.h"
#include "common/check.h"

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

/// Unsigned integer whose order is the numeric order of `v`. -0.0 maps to
/// +0.0's image, so the two tie exactly as they do under a double compare.
uint64_t OrderedBits(double v) {
  if (v == 0) v = 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  constexpr uint64_t kSign = 1ULL << 63;
  return (bits & kSign) != 0 ? ~bits : bits | kSign;
}

struct RadixEntry {
  uint64_t key;
  uint32_t row;
};

/// Stable LSD radix sort on `key`, one byte per pass; passes whose byte is
/// the same for every entry are skipped (small integer domains touch only
/// a few of the eight).
void RadixSort(std::vector<RadixEntry>* entries) {
  const size_t n = entries->size();
  if (n < 2) return;
  std::array<std::array<size_t, 256>, 8> counts{};
  for (const RadixEntry& e : *entries) {
    for (size_t d = 0; d < 8; ++d) ++counts[d][(e.key >> (8 * d)) & 0xff];
  }
  std::vector<RadixEntry> scratch(n);
  RadixEntry* src = entries->data();
  RadixEntry* dst = scratch.data();
  for (size_t d = 0; d < 8; ++d) {
    std::array<size_t, 256>& offset = counts[d];
    if (offset[(src[0].key >> (8 * d)) & 0xff] == n) continue;
    size_t sum = 0;
    for (size_t& c : offset) {
      const size_t here = c;
      c = sum;
      sum += here;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[offset[(src[i].key >> (8 * d)) & 0xff]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != entries->data()) std::copy(src, src + n, entries->data());
}

}  // namespace

BTreeIndex::BTreeIndex(const Database& db, IndexDef def)
    : def_(std::move(def)), width_(def_.key_columns.size()) {
  AIMAI_CHECK(!def_.is_columnstore);
  AIMAI_CHECK(width_ > 0);
  const Table& table = db.table(def_.table_id);
  const size_t n = table.num_rows();

  // Column-major copy of the key columns: columns[c * n + r].
  std::vector<double> columns(width_ * n);
  for (size_t c = 0; c < width_; ++c) {
    const Column& col = table.column(static_cast<size_t>(def_.key_columns[c]));
    double* dst = columns.data() + c * n;
    for (size_t r = 0; r < n; ++r) dst[r] = col.NumericAt(r);
  }

  // Entry order: (key, row id) ascending — a total order, so any correct
  // sort yields the one sequence.
  rows_.resize(n);
  if (width_ == 1) {
    std::vector<RadixEntry> entries(n);
    for (size_t r = 0; r < n; ++r) {
      entries[r] = {OrderedBits(columns[r]), static_cast<uint32_t>(r)};
    }
    RadixSort(&entries);  // Stable: equal keys keep row-id order.
    for (size_t i = 0; i < n; ++i) rows_[i] = entries[i].row;
  } else {
    std::iota(rows_.begin(), rows_.end(), 0u);
    std::sort(rows_.begin(), rows_.end(),
              [&columns, n, w = width_](uint32_t a, uint32_t b) {
                for (size_t c = 0; c < w; ++c) {
                  const double av = columns[c * n + a];
                  const double bv = columns[c * n + b];
                  if (av < bv) return true;
                  if (av > bv) return false;
                }
                return a < b;
              });
  }

  keys_.resize(width_ * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < width_; ++c) {
      keys_[i * width_ + c] = columns[c * n + rows_[i]];
    }
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
  // Search on the leading column's order-preserving bits: the entry order
  // single-column keys were radix-sorted by, and the double order for
  // composite keys. NaN entries map outside every non-NaN image.
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
