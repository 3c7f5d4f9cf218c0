#include "exec/operators.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "common/check.h"

namespace aimai {

int RowSet::SlotOf(int table_id) const {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (tables[i] == table_id) return static_cast<int>(i);
  }
  return -1;
}

namespace {

size_t SlotOrDie(const RowSet& rs, int table_id) {
  const int slot = rs.SlotOf(table_id);
  AIMAI_CHECK_MSG(slot >= 0, "column's table not in rowset");
  return static_cast<size_t>(slot);
}

}  // namespace

SlotColumn::SlotColumn(const Database& db, const RowSet& rs, ColumnRef col)
    : slot(SlotOrDie(rs, col.table_id)),
      view(ColumnView::Of(
          db.table(col.table_id).column(static_cast<size_t>(col.column_id)))) {}

namespace {

/// Hash-join directory: open addressing over the distinct build keys, each
/// slot heading a chain threaded through `next_` (one link per build
/// tuple). Inserting at the chain head makes a walk visit equal keys newest
/// first. Keys compare as doubles, so -0.0 meets +0.0 (both hash as +0.0)
/// and NaN meets nothing (callers never insert it).
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
  }

  void Insert(double key, uint32_t t) {
    size_t s = Home(key);
    while (heads_[s] != kNone && keys_[s] != key) s = (s + 1) & mask_;
    keys_[s] = key;
    next_[t] = heads_[s];
    heads_[s] = t;
  }

  /// Newest build tuple with `key`, or kNone.
  uint32_t Find(double key) const {
    for (size_t s = Home(key); heads_[s] != kNone; s = (s + 1) & mask_) {
      if (keys_[s] == key) return heads_[s];
    }
    return kNone;
  }

  uint32_t Next(uint32_t t) const { return next_[t]; }

 private:
  size_t Home(double key) const {
    if (key == 0) key = 0.0;
    uint64_t bits;
    std::memcpy(&bits, &key, sizeof(bits));
    return static_cast<size_t>((bits * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  std::vector<double> keys_;
  std::vector<uint32_t> heads_;
  std::vector<uint32_t> next_;
  size_t mask_ = 0;
  int shift_ = 0;
};

std::vector<int> ConcatTables(const RowSet& a, const RowSet& b) {
  std::vector<int> out = a.tables;
  out.insert(out.end(), b.tables.begin(), b.tables.end());
  return out;
}

}  // namespace

RowSet HashJoinRows(const Database& db, const RowSet& build,
                    ColumnRef build_col, const RowSet& probe,
                    ColumnRef probe_col) {
  RowSet out;
  out.tables = ConcatTables(probe, build);
  if (build.size() == 0 || probe.size() == 0) return out;
  const SlotColumn bkey(db, build, build_col);
  const SlotColumn pkey(db, probe, probe_col);
  const size_t pw = probe.width();
  const size_t bw = build.width();

  JoinDirectory dir(build.size());
  for (size_t t = 0; t < build.size(); ++t) {
    const double v = bkey.At(build.tuple(t));
    if (!std::isnan(v)) dir.Insert(v, static_cast<uint32_t>(t));
  }
  for (size_t t = 0; t < probe.size(); ++t) {
    const uint32_t* pt = probe.tuple(t);
    for (uint32_t b = dir.Find(pkey.At(pt)); b != JoinDirectory::kNone;
         b = dir.Next(b)) {
      const uint32_t* bt = build.tuple(b);
      out.ids.insert(out.ids.end(), pt, pt + pw);
      out.ids.insert(out.ids.end(), bt, bt + bw);
    }
  }
  return out;
}

RowSet MergeJoinRows(const Database& db, const RowSet& left, ColumnRef left_col,
                     const RowSet& right, ColumnRef right_col) {
  RowSet out;
  out.tables = ConcatTables(left, right);
  if (left.size() == 0 || right.size() == 0) return out;
  const SlotColumn lkey(db, left, left_col);
  const SlotColumn rkey(db, right, right_col);
  const size_t lw = left.width();
  const size_t rw = right.width();

  size_t i = 0, j = 0;
  const size_t n = left.size(), m = right.size();
  while (i < n && j < m) {
    const double lv = lkey.At(left.tuple(i));
    const double rv = rkey.At(right.tuple(j));
    if (lv < rv) {
      ++i;
    } else if (lv > rv) {
      ++j;
    } else {
      // Equal block: find extents on both sides, emit cross product.
      size_t i_end = i;
      while (i_end < n && lkey.At(left.tuple(i_end)) == lv) ++i_end;
      size_t j_end = j;
      while (j_end < m && rkey.At(right.tuple(j_end)) == rv) ++j_end;
      for (size_t a = i; a < i_end; ++a) {
        for (size_t b = j; b < j_end; ++b) {
          out.ids.insert(out.ids.end(), left.tuple(a), left.tuple(a) + lw);
          out.ids.insert(out.ids.end(), right.tuple(b), right.tuple(b) + rw);
        }
      }
      i = i_end;
      j = j_end;
    }
  }
  return out;
}

void SortRows(const Database& db, RowSet* rs,
              const std::vector<SortKey>& keys) {
  if (rs->size() == 0) return;
  struct KeyAccessor {
    SlotColumn col;
    bool ascending;
  };
  std::vector<KeyAccessor> acc;
  acc.reserve(keys.size());
  for (const SortKey& k : keys) {
    acc.push_back({SlotColumn(db, *rs, k.col), k.ascending});
  }
  // Sorting tuple indices with the tuple comparator reproduces sorting the
  // tuples themselves exactly, ties included: std::sort's element moves
  // depend only on comparison outcomes.
  const size_t n = rs->size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&acc, rs](uint32_t a, uint32_t b) {
    const uint32_t* ta = rs->tuple(a);
    const uint32_t* tb = rs->tuple(b);
    for (const KeyAccessor& k : acc) {
      const double av = k.col.At(ta);
      const double bv = k.col.At(tb);
      if (av != bv) return k.ascending ? av < bv : av > bv;
    }
    return false;
  });
  RowSet sorted;
  sorted.tables = rs->tables;
  sorted.ids.reserve(rs->ids.size());
  for (uint32_t t : order) sorted.Append(rs->tuple(t));
  *rs = std::move(sorted);
}

namespace {

struct VecHash {
  size_t operator()(const std::vector<double>& v) const {
    size_t h = 1469598103934665603ULL;
    for (double d : v) {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(d));
      h ^= bits;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

struct AggState {
  double count = 0;
  std::vector<double> sum;
  std::vector<double> min;
  std::vector<double> max;
};

}  // namespace

AggResult AggregateRows(const Database& db, const RowSet& input,
                        const std::vector<ColumnRef>& group_by,
                        const std::vector<AggItem>& aggs) {
  // Groups are registered and emitted in first-seen input order — a
  // deterministic order shared with the vectorized engine's
  // GroupedAggregator, so the two paths produce bit-identical AggResults
  // (unordered_map iteration order is implementation-defined and would
  // diverge between differently-built hash tables).
  if (input.size() == 0) return {};
  std::unordered_map<std::vector<double>, size_t, VecHash> index;
  std::vector<std::vector<double>> keys;
  std::vector<AggState> states;
  const size_t na = aggs.size();
  std::vector<SlotColumn> group_cols;
  group_cols.reserve(group_by.size());
  for (const ColumnRef& c : group_by) group_cols.emplace_back(db, input, c);
  std::vector<std::optional<SlotColumn>> agg_cols(na);
  for (size_t a = 0; a < na; ++a) {
    if (aggs[a].func != AggFunc::kCount) {
      agg_cols[a].emplace(db, input, aggs[a].col);
    }
  }
  std::vector<double> key(group_by.size());  // Reused; copied per new group.
  for (size_t t = 0; t < input.size(); ++t) {
    const uint32_t* tuple = input.tuple(t);
    for (size_t k = 0; k < group_cols.size(); ++k) {
      key[k] = group_cols[k].At(tuple);
    }
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, states.size()).first;
      keys.push_back(key);
      states.emplace_back();
    }
    AggState& st = states[it->second];
    if (st.sum.empty() && na > 0) {
      st.sum.assign(na, 0.0);
      st.min.assign(na, std::numeric_limits<double>::infinity());
      st.max.assign(na, -std::numeric_limits<double>::infinity());
    }
    st.count += 1;
    for (size_t a = 0; a < na; ++a) {
      if (aggs[a].func == AggFunc::kCount) continue;
      const double v = agg_cols[a]->At(tuple);
      st.sum[a] += v;
      st.min[a] = std::min(st.min[a], v);
      st.max[a] = std::max(st.max[a], v);
    }
  }

  AggResult out;
  out.group_keys.reserve(states.size());
  out.agg_values.reserve(states.size());
  for (size_t g = 0; g < states.size(); ++g) {
    AggState& st = states[g];
    out.group_keys.push_back(std::move(keys[g]));
    std::vector<double> vals(na, 0.0);
    for (size_t a = 0; a < na; ++a) {
      switch (aggs[a].func) {
        case AggFunc::kCount:
          vals[a] = st.count;
          break;
        case AggFunc::kSum:
          vals[a] = st.sum[a];
          break;
        case AggFunc::kAvg:
          vals[a] = st.count > 0 ? st.sum[a] / st.count : 0;
          break;
        case AggFunc::kMin:
          vals[a] = st.min[a];
          break;
        case AggFunc::kMax:
          vals[a] = st.max[a];
          break;
      }
    }
    out.agg_values.push_back(std::move(vals));
  }
  return out;
}

void SortAggResult(AggResult* agg) {
  std::vector<size_t> order(agg->size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [agg](size_t a, size_t b) {
    return agg->group_keys[a] < agg->group_keys[b];
  });
  AggResult out;
  out.group_keys.reserve(agg->size());
  out.agg_values.reserve(agg->size());
  for (size_t i : order) {
    out.group_keys.push_back(std::move(agg->group_keys[i]));
    out.agg_values.push_back(std::move(agg->agg_values[i]));
  }
  *agg = std::move(out);
}

}  // namespace aimai
