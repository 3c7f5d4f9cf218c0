// Unit & property tests for the B+-tree index: seeks validated against a
// brute-force oracle over random data, keys, and ranges.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "catalog/database.h"
#include "common/ordered_bits.h"
#include "common/string_util.h"
#include "index/btree_index.h"
#include "index/index_manager.h"
#include "obs/metrics.h"
#include "storage/data_generator.h"

namespace aimai {
namespace {

std::unique_ptr<Database> MakeDb(size_t rows, int64_t domain, uint64_t seed) {
  auto db = std::make_unique<Database>("btree_db");
  DataGenerator gen(Rng{seed});
  auto t = std::make_unique<Table>("t");
  gen.FillUniformInt(t->AddColumn("a", DataType::kInt64), rows, 0, domain);
  gen.FillUniformInt(t->AddColumn("b", DataType::kInt64), rows, 0, 5);
  t->SealRows();
  db->AddTable(std::move(t));
  return db;
}

IndexDef SingleCol() {
  IndexDef d;
  d.table_id = 0;
  d.key_columns = {0};
  return d;
}

TEST(BTreeTest, EmptyTable) {
  auto db = std::make_unique<Database>("e");
  auto t = std::make_unique<Table>("t");
  t->AddColumn("a", DataType::kInt64);
  t->SealRows();
  db->AddTable(std::move(t));
  BTreeIndex idx(*db, SingleCol());
  EXPECT_EQ(idx.num_entries(), 0u);
  KeyRange all;
  EXPECT_TRUE(idx.SeekRange(all).empty());
  EXPECT_TRUE(idx.ScanAll().empty());
}

TEST(BTreeTest, ScanAllIsSortedPermutation) {
  auto db = MakeDb(500, 50, 1);
  BTreeIndex idx(*db, SingleCol());
  EXPECT_EQ(idx.num_entries(), 500u);
  const std::vector<uint32_t> rows = idx.ScanAll();
  EXPECT_EQ(rows.size(), 500u);
  const Column& col = db->table(0).column(0);
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LE(col.NumericAt(rows[i - 1]), col.NumericAt(rows[i]));
  }
  std::vector<uint32_t> sorted = rows;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], i);
  }
}

TEST(BTreeTest, HeightGrowsWithSize) {
  auto small = MakeDb(10, 100, 2);
  BTreeIndex sidx(*small, SingleCol());
  EXPECT_EQ(sidx.height(), 1);
  auto big = MakeDb(20000, 100000, 3);
  BTreeIndex bidx(*big, SingleCol());
  EXPECT_GE(bidx.height(), 2);
}

// Property test: random range seeks match a brute-force oracle.
class BTreeSeekProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeSeekProperty, MatchesOracle) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t rows = 200 + rng.Index(2000);
  const int64_t domain = 1 + static_cast<int64_t>(rng.Index(300));
  auto db = MakeDb(rows, domain, seed + 10);
  BTreeIndex idx(*db, SingleCol());
  const Column& col = db->table(0).column(0);

  for (int trial = 0; trial < 25; ++trial) {
    KeyRange range;
    const int shape = static_cast<int>(rng.Index(4));
    const double lo = static_cast<double>(rng.UniformInt(-2, domain + 2));
    const double hi = lo + static_cast<double>(rng.UniformInt(0, domain));
    if (shape == 0) {  // Equality.
      range.lower = {lo};
      range.upper = {lo};
      range.has_lower = range.has_upper = true;
    } else if (shape == 1) {  // Range [lo, hi], maybe open ends.
      range.lower = {lo};
      range.upper = {hi};
      range.has_lower = range.has_upper = true;
      range.lower_open = rng.Bernoulli(0.5);
      range.upper_open = rng.Bernoulli(0.5);
    } else if (shape == 2) {  // Lower bound only.
      range.lower = {lo};
      range.has_lower = true;
      range.lower_open = rng.Bernoulli(0.5);
    } else {  // Upper bound only.
      range.upper = {hi};
      range.has_upper = true;
      range.upper_open = rng.Bernoulli(0.5);
    }

    std::vector<uint32_t> expected;
    for (size_t r = 0; r < rows; ++r) {
      const double v = col.NumericAt(r);
      bool ok = true;
      if (range.has_lower) {
        ok &= range.lower_open ? v > range.lower[0] : v >= range.lower[0];
      }
      if (range.has_upper) {
        ok &= range.upper_open ? v < range.upper[0] : v <= range.upper[0];
      }
      if (ok) expected.push_back(static_cast<uint32_t>(r));
    }
    std::vector<uint32_t> got = idx.SeekRange(range);
    std::sort(got.begin(), got.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(got, expected) << "seed=" << seed << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, BTreeSeekProperty,
                         ::testing::Range<uint64_t>(0, 12));

// Composite-key seeks: equality prefix + range on the second column.
TEST(BTreeTest, CompositeKeySeek) {
  auto db = MakeDb(3000, 20, 7);
  IndexDef def;
  def.table_id = 0;
  def.key_columns = {1, 0};  // (b, a).
  BTreeIndex idx(*db, def);
  const Column& ca = db->table(0).column(0);
  const Column& cb = db->table(0).column(1);

  // b == 3 AND a in [5, 12].
  KeyRange range;
  range.lower = {3.0, 5.0};
  range.upper = {3.0, 12.0};
  range.has_lower = range.has_upper = true;

  std::vector<uint32_t> expected;
  for (size_t r = 0; r < 3000; ++r) {
    if (cb.NumericAt(r) == 3.0 && ca.NumericAt(r) >= 5.0 &&
        ca.NumericAt(r) <= 12.0) {
      expected.push_back(static_cast<uint32_t>(r));
    }
  }
  std::vector<uint32_t> got = idx.SeekRange(range);
  std::sort(got.begin(), got.end());
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(got, expected);

  // Equality prefix only: b == 3.
  KeyRange prefix;
  prefix.lower = {3.0};
  prefix.upper = {3.0};
  prefix.has_lower = prefix.has_upper = true;
  size_t expected_count = 0;
  for (size_t r = 0; r < 3000; ++r) {
    if (cb.NumericAt(r) == 3.0) ++expected_count;
  }
  EXPECT_EQ(idx.SeekRange(prefix).size(), expected_count);
}

TEST(BTreeTest, CountLeafPagesBounded) {
  auto db = MakeDb(5000, 1000, 9);
  BTreeIndex idx(*db, SingleCol());
  KeyRange all;
  const size_t total_pages = idx.CountLeafPages(all);
  EXPECT_GE(total_pages, 5000u / BTreeIndex::kLeafCapacity);
  KeyRange point;
  point.lower = {500.0};
  point.upper = {500.0};
  point.has_lower = point.has_upper = true;
  EXPECT_LE(idx.CountLeafPages(point), 2u);
}

TEST(CompareKeysTest, LexicographicWithPrefix) {
  EXPECT_EQ(CompareKeys({1, 2}, {1, 3}), -1);
  EXPECT_EQ(CompareKeys({2}, {1, 9}), 1);
  EXPECT_EQ(CompareKeys({1}, {1, 9}), 0);  // Prefix compares equal.
  EXPECT_EQ(CompareKeys({}, {1}), 0);
}

// --- Flat-layout oracles: the entry sequence must be exactly the stable
// (key, row id) order, and the page arithmetic must match walking that
// sequence in kLeafCapacity-entry pages.

using Columns = std::vector<std::vector<double>>;

std::unique_ptr<Database> MakeDoubleDb(const Columns& cols) {
  auto db = std::make_unique<Database>("flat_db");
  auto t = std::make_unique<Table>("t");
  for (size_t c = 0; c < cols.size(); ++c) {
    Column* col = t->AddColumn(StrFormat("c%zu", c), DataType::kDouble);
    for (double v : cols[c]) col->AppendDouble(v);
  }
  t->SealRows();
  db->AddTable(std::move(t));
  return db;
}

IndexDef KeyOn(const std::vector<int>& key) {
  IndexDef d;
  d.table_id = 0;
  d.key_columns = key;
  return d;
}

IndexKey KeyOf(const Columns& cols, const std::vector<int>& key, uint32_t r) {
  IndexKey out;
  for (int c : key) out.push_back(cols[static_cast<size_t>(c)][r]);
  return out;
}

// Row ids stably sorted by key: ties (including -0.0 vs +0.0) keep row-id
// order.
std::vector<uint32_t> OracleOrder(const Columns& cols,
                                  const std::vector<int>& key) {
  std::vector<uint32_t> order(cols[0].size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return CompareKeys(KeyOf(cols, key, a), KeyOf(cols, key, b)) < 0;
  });
  return order;
}

bool OracleInRange(const IndexKey& k, const KeyRange& range) {
  if (range.has_lower) {
    const int c = CompareKeys(k, range.lower);
    if (range.lower_open ? c <= 0 : c < 0) return false;
  }
  if (range.has_upper) {
    const int c = CompareKeys(k, range.upper);
    if (range.upper_open ? c >= 0 : c > 0) return false;
  }
  return true;
}

// A random range over the key's leading columns: an equality prefix, then
// possibly one bounded column, each side possibly open or absent.
KeyRange RandomRange(const Columns& cols, const std::vector<int>& key,
                     Rng* rng) {
  const size_t n = cols[0].size();
  const IndexKey a = KeyOf(cols, key, static_cast<uint32_t>(rng->Index(n)));
  const IndexKey b = KeyOf(cols, key, static_cast<uint32_t>(rng->Index(n)));
  KeyRange range;
  const size_t eq = rng->Index(key.size());
  for (size_t i = 0; i < eq; ++i) {
    range.lower.push_back(a[i]);
    range.upper.push_back(a[i]);
    range.has_lower = range.has_upper = true;
  }
  const double lo = std::min(a[eq], b[eq]);
  const double hi = std::max(a[eq], b[eq]);
  if (rng->Bernoulli(0.8)) {
    range.lower.push_back(lo);
    range.has_lower = true;
    range.lower_open = rng->Bernoulli(0.5);
  }
  if (rng->Bernoulli(0.8)) {
    range.upper.push_back(hi);
    range.has_upper = true;
    range.upper_open = rng->Bernoulli(0.5);
  }
  return range;
}

// `cols` is the numeric view of `db`'s table 0.
void ExpectIndexMatchesOracle(const Database& db, const Columns& cols,
                              const std::vector<int>& key, uint64_t seed) {
  BTreeIndex idx(db, KeyOn(key));
  const std::vector<uint32_t> order = OracleOrder(cols, key);
  ASSERT_EQ(idx.ScanAll(), order);
  std::vector<uint64_t> want_keys;
  for (uint32_t r : order) {
    for (double v : KeyOf(cols, key, r)) {
      want_keys.push_back(std::bit_cast<uint64_t>(v));
    }
  }
  std::vector<uint64_t> got_keys;
  for (double v : idx.keys()) got_keys.push_back(std::bit_cast<uint64_t>(v));
  ASSERT_EQ(got_keys, want_keys);

  Rng rng(seed);
  for (int trial = 0; trial < 60; ++trial) {
    const KeyRange range = RandomRange(cols, key, &rng);
    std::vector<uint32_t> expected;
    std::set<size_t> pages;
    for (size_t i = 0; i < order.size(); ++i) {
      if (OracleInRange(KeyOf(cols, key, order[i]), range)) {
        expected.push_back(order[i]);
        pages.insert(i / BTreeIndex::kLeafCapacity);
      }
    }
    ASSERT_EQ(idx.SeekRange(range), expected) << "trial " << trial;
    ASSERT_EQ(idx.CountLeafPages(range), pages.size()) << "trial " << trial;
  }
}

void ExpectMatchesOracle(const Columns& cols, const std::vector<int>& key,
                         uint64_t seed) {
  ExpectIndexMatchesOracle(*MakeDoubleDb(cols), cols, key, seed);
}

TEST(BTreeFlatTest, NegativeDoublesMatchStableSortOracle) {
  Rng rng(21);
  Columns cols(1);
  for (int i = 0; i < 900; ++i) {
    // Mix of wide-range negatives, small fractions and repeated values.
    const double v = rng.Bernoulli(0.3)
                         ? static_cast<double>(rng.UniformInt(-5, 5))
                         : rng.Uniform(-1e6, 1e3);
    cols[0].push_back(v);
  }
  cols[0].push_back(-std::numeric_limits<double>::infinity());
  cols[0].push_back(std::numeric_limits<double>::infinity());
  cols[0].push_back(-std::numeric_limits<double>::denorm_min());
  ExpectMatchesOracle(cols, {0}, 1);
}

TEST(BTreeFlatTest, SignedZerosTieInRowIdOrder) {
  Rng rng(22);
  Columns cols(1);
  for (int i = 0; i < 500; ++i) {
    const double choices[] = {-0.0, 0.0, -1.0, 1.0, -0.5};
    cols[0].push_back(choices[rng.Index(5)]);
  }
  ExpectMatchesOracle(cols, {0}, 2);

  // An equality seek on 0 returns both zeros, interleaved by row id.
  auto db = MakeDoubleDb(cols);
  BTreeIndex idx(*db, KeyOn({0}));
  KeyRange zero;
  zero.lower = {0.0};
  zero.upper = {-0.0};
  zero.has_lower = zero.has_upper = true;
  std::vector<uint32_t> expected;
  for (uint32_t r = 0; r < cols[0].size(); ++r) {
    if (cols[0][r] == 0.0) expected.push_back(r);
  }
  EXPECT_EQ(idx.SeekRange(zero), expected);
}

TEST(BTreeFlatTest, DuplicateRunsCrossPageBoundaries) {
  // Runs of equal keys up to ~4 pages long, in shuffled value order, so
  // ties straddle leaf-page boundaries at every offset.
  Rng rng(23);
  Columns cols(1);
  std::vector<double> values = {3, -2, 7, 0, 11, -9, 5, 1};
  rng.Shuffle(&values);
  for (double v : values) {
    const size_t run = 1 + rng.Index(4 * BTreeIndex::kLeafCapacity);
    for (size_t i = 0; i < run; ++i) cols[0].push_back(v);
  }
  // Interleave a second pass so each value's rows are not contiguous.
  for (size_t i = 0; i < 300; ++i) cols[0].push_back(values[rng.Index(8)]);
  ExpectMatchesOracle(cols, {0}, 3);
}

TEST(BTreeFlatTest, CompositeKeysMatchStableSortOracle) {
  Rng rng(24);
  Columns cols(3);
  for (int i = 0; i < 1500; ++i) {
    cols[0].push_back(static_cast<double>(rng.UniformInt(-3, 3)));
    cols[1].push_back(rng.Bernoulli(0.5) ? -0.0 : rng.Uniform(-2, 2));
    cols[2].push_back(static_cast<double>(rng.UniformInt(0, 4)));
  }
  ExpectMatchesOracle(cols, {0, 2}, 4);
  ExpectMatchesOracle(cols, {2, 0, 1}, 5);
  ExpectMatchesOracle(cols, {1, 2}, 6);
}

// Integer key columns (int64 or dictionary codes) with a dense domain take
// the counting-sort bulk load; every other column the radix sort. Both
// must yield the stable-sort oracle's entry sequence.

// One table of int64 (`kInt64`) or dictionary-code (`kString`) columns;
// returns their numeric view in `view`.
std::unique_ptr<Database> MakeIntDb(const std::vector<std::vector<int64_t>>& cols,
                                    DataType type, Columns* view) {
  auto db = std::make_unique<Database>("int_db");
  auto t = std::make_unique<Table>("t");
  view->assign(cols.size(), {});
  for (size_t c = 0; c < cols.size(); ++c) {
    Column* col = t->AddColumn(StrFormat("c%zu", c), type);
    if (type == DataType::kString) {
      const int64_t top = *std::max_element(cols[c].begin(), cols[c].end());
      std::vector<std::string> dict;
      for (int64_t k = 0; k <= top; ++k) {
        dict.push_back(std::string(12 - std::to_string(k).size(), '0') +
                       std::to_string(k));
      }
      col->SetDictionary(std::move(dict));
    }
    for (int64_t v : cols[c]) {
      if (type == DataType::kString) {
        col->AppendCode(static_cast<int32_t>(v));
      } else {
        col->AppendInt(v);
      }
    }
    for (size_t r = 0; r < cols[c].size(); ++r) {
      (*view)[c].push_back(col->NumericAt(r));
    }
  }
  t->SealRows();
  db->AddTable(std::move(t));
  return db;
}

void ExpectIntKeysMatchOracle(const std::vector<std::vector<int64_t>>& cols,
                              DataType type, const std::vector<int>& key,
                              uint64_t seed) {
  Columns view;
  auto db = MakeIntDb(cols, type, &view);
  ExpectIndexMatchesOracle(*db, view, key, seed);
}

// `n` values in [lo, lo + span], both ends present, shuffled.
std::vector<int64_t> SpanValues(size_t n, int64_t lo, int64_t span, Rng* rng) {
  std::vector<int64_t> v = {lo, lo + span};
  while (v.size() < n) v.push_back(lo + rng->UniformInt(0, span));
  rng->Shuffle(&v);
  return v;
}

TEST(BTreeDenseTest, SpansAroundTheDensityCutoffMatchOracle) {
  Rng rng(31);
  const size_t n = 700;
  const auto cutoff = static_cast<int64_t>(BTreeIndex::kDenseSpanPerRow * n);
  for (int64_t span : {cutoff - 1, cutoff, cutoff + 1, int64_t{0}, int64_t{1}}) {
    ExpectIntKeysMatchOracle({SpanValues(n, 17, span, &rng)},
                             DataType::kInt64, {0}, 40);
    ExpectIntKeysMatchOracle({SpanValues(n, 0, span, &rng)},
                             DataType::kString, {0}, 41);
  }
}

TEST(BTreeDenseTest, NegativeIntKeysMatchOracle) {
  Rng rng(32);
  ExpectIntKeysMatchOracle({SpanValues(900, -2500, 1800, &rng)},
                           DataType::kInt64, {0}, 42);
  ExpectIntKeysMatchOracle({SpanValues(900, -40, 80, &rng)}, DataType::kInt64,
                           {0}, 43);
}

TEST(BTreeDenseTest, KeysStraddlingTwoToThe53MatchOracle) {
  // Past ±2^53 neighbouring integers share a double, so a tiny span must
  // still take the radix path over the numeric view: ties there fall back
  // to row-id order.
  constexpr int64_t k53 = int64_t{1} << 53;
  Rng rng(33);
  for (int64_t lo : {k53 - 6, -k53 - 6, k53 - 300, -k53, k53 - 40}) {
    ExpectIntKeysMatchOracle({SpanValues(600, lo, 12, &rng)},
                             DataType::kInt64, {0}, 44);
  }
  // Exactly ±2^53 at the ends still qualifies for the counting sort.
  std::vector<int64_t> edges = SpanValues(600, k53 - 20, 20, &rng);
  edges.push_back(k53);
  ExpectIntKeysMatchOracle({edges}, DataType::kInt64, {0}, 45);
}

TEST(BTreeDenseTest, HeavyDuplicateRunsAcrossPagesMatchOracle) {
  Rng rng(34);
  std::vector<int64_t> values;
  for (int64_t v : {5, -3, 9, 0, 2}) {
    const size_t run = 1 + rng.Index(5 * BTreeIndex::kLeafCapacity);
    for (size_t i = 0; i < run; ++i) values.push_back(v);
  }
  for (size_t i = 0; i < 400; ++i) values.push_back(rng.UniformInt(-3, 9));
  ExpectIntKeysMatchOracle({values}, DataType::kInt64, {0}, 46);
  for (int64_t& v : values) v += 3;
  ExpectIntKeysMatchOracle({values}, DataType::kString, {0}, 47);
}

TEST(BTreeDenseTest, CompositeIntKeysMixCountingAndRadixPasses) {
  // Column 0 dense, column 1 too wide for a counting sort, column 2 dense
  // with heavy ties: every pass order over them matches the oracle.
  Rng rng(35);
  const size_t n = 1200;
  std::vector<std::vector<int64_t>> cols(3);
  for (size_t r = 0; r < n; ++r) {
    cols[0].push_back(rng.UniformInt(-6, 6));
    cols[1].push_back(rng.UniformInt(0, 3) * 1000000);
    cols[2].push_back(rng.UniformInt(0, 2));
  }
  ExpectIntKeysMatchOracle(cols, DataType::kInt64, {0, 1}, 48);
  ExpectIntKeysMatchOracle(cols, DataType::kInt64, {1, 2, 0}, 49);
  ExpectIntKeysMatchOracle(cols, DataType::kInt64, {2, 0}, 50);
}

TEST(BTreeDenseTest, CompositeNanKeysOrderLikeSingleColumnKeys) {
  // Every key column sorts by its OrderedBits image: a negative NaN first,
  // a positive NaN last, ties in row-id order — for composite keys too.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(36);
  Columns cols(2);
  for (int i = 0; i < 600; ++i) {
    const double lead[] = {nan, -nan, -1.0, 0.0, -0.0, 3.0};
    cols[0].push_back(lead[rng.Index(6)]);
    cols[1].push_back(rng.Bernoulli(0.1) ? nan
                                         : static_cast<double>(rng.UniformInt(0, 4)));
  }
  auto image = [&](uint32_t r) {
    return std::make_pair(OrderedBits(cols[0][r]), OrderedBits(cols[1][r]));
  };
  std::vector<uint32_t> want(cols[0].size());
  std::iota(want.begin(), want.end(), 0u);
  std::stable_sort(want.begin(), want.end(), [&](uint32_t a, uint32_t b) {
    return image(a) < image(b);
  });
  auto db = MakeDoubleDb(cols);
  EXPECT_EQ(BTreeIndex(*db, KeyOn({0, 1})).ScanAll(), want);

  std::vector<uint32_t> lead_only(cols[0].size());
  std::iota(lead_only.begin(), lead_only.end(), 0u);
  std::stable_sort(lead_only.begin(), lead_only.end(),
                   [&](uint32_t a, uint32_t b) {
                     return OrderedBits(cols[0][a]) < OrderedBits(cols[0][b]);
                   });
  EXPECT_EQ(BTreeIndex(*db, KeyOn({0})).ScanAll(), lead_only);
}

TEST(BTreeFlatTest, HeightFollowsPageArithmetic) {
  // 64-entry leaves under 64-way internal nodes: 0, 1 and 64 rows fit one
  // leaf; 65 rows need two leaves under a root; 4097 rows need 65 leaves,
  // two internal nodes and a root.
  const std::pair<size_t, int> cases[] = {
      {0, 1}, {1, 1}, {64, 1}, {65, 2}, {4097, 3}};
  for (const auto& [rows, height] : cases) {
    Columns cols(1);
    for (size_t r = 0; r < rows; ++r) {
      cols[0].push_back(static_cast<double>(r));
    }
    auto db = MakeDoubleDb(cols);
    BTreeIndex idx(*db, KeyOn({0}));
    EXPECT_EQ(idx.height(), height) << rows << " rows";
    const size_t leaves = (rows + BTreeIndex::kLeafCapacity - 1) /
                          BTreeIndex::kLeafCapacity;
    EXPECT_EQ(idx.CountLeafPages(KeyRange{}), leaves) << rows << " rows";
  }
}

// SeekEqual is the nested-loop join's equality rebind: exactly the entries
// whose leading key equals the probe, in index order, NaN meeting nothing
// on either side; on NaN-free keys it is the one-column seek [v, v].
TEST(BTreeFlatTest, SeekEqualMatchesEqualityScan) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(25);
  Columns cols(2);
  for (int i = 0; i < 700; ++i) {
    const double choices[] = {-0.0, 0.0, 1.0, 2.0, -3.0, 4.5,
                              std::numeric_limits<double>::infinity()};
    cols[0].push_back(rng.Bernoulli(0.05) ? (rng.Bernoulli(0.5) ? nan : -nan)
                                          : choices[rng.Index(7)]);
    cols[1].push_back(static_cast<double>(rng.UniformInt(0, 3)));
  }
  const std::vector<double> probes = {-0.0, 0.0, 1.0, 2.0, -3.0, 4.5, 7.0,
                                      std::numeric_limits<double>::infinity(),
                                      -std::numeric_limits<double>::infinity()};
  auto db = MakeDoubleDb(cols);
  BTreeIndex idx(*db, KeyOn({0}));
  for (double v : probes) {
    std::vector<uint32_t> expected;
    for (uint32_t r : idx.ScanAll()) {
      if (cols[0][r] == v) expected.push_back(r);
    }
    const std::span<const uint32_t> got = idx.SeekEqual(v);
    EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), expected) << v;
  }
  EXPECT_TRUE(idx.SeekEqual(nan).empty());

  // The cursor form returns the same runs over any probe order: ascending
  // runs keep the cursor, anything else restarts it.
  std::vector<double> order = probes;
  for (int i = 0; i < 200; ++i) order.push_back(probes[rng.Index(probes.size())]);
  std::sort(order.begin(), order.begin() + 40);
  size_t cursor = 0;
  double prev = 0;
  for (double v : order) {
    if (!(v > prev)) cursor = 0;
    prev = v;
    const std::span<const uint32_t> plain = idx.SeekEqual(v);
    const std::span<const uint32_t> hinted = idx.SeekEqual(v, &cursor);
    EXPECT_EQ(std::vector<uint32_t>(hinted.begin(), hinted.end()),
              std::vector<uint32_t>(plain.begin(), plain.end()))
        << v;
  }

  // NaN-free, composite: the leading-column seek's span.
  for (double& v : cols[0]) {
    if (std::isnan(v)) v = 1.0;
  }
  auto clean = MakeDoubleDb(cols);
  for (const std::vector<int>& key : {std::vector<int>{0}, {0, 1}}) {
    BTreeIndex cidx(*clean, KeyOn(key));
    for (double v : probes) {
      KeyRange eq;
      eq.lower = {v};
      eq.upper = {v};
      eq.has_lower = eq.has_upper = true;
      const std::span<const uint32_t> got = cidx.SeekEqual(v);
      EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()),
                cidx.SeekRange(eq))
          << v;
      size_t from_start = 0;
      EXPECT_EQ(cidx.SeekEqual(v, &from_start).size(), got.size()) << v;
    }
  }
}

// Key columns that are neither dense integers nor crowded into one value
// slice take one bucket pass; the rest fall back to the radix sort. Either
// way the entries are a stable sort by (OrderedBits of each key column,
// row id), NaNs and signed zeros included.

int64_t RadixFallbacks() {
#if defined(AIMAI_OBS_DISABLED)
  return 0;
#else
  return obs::Registry().GetCounter("index.radix_fallbacks")->value();
#endif
}

// Builds the index on `key` over `cols` (int columns are stored as int64)
// and checks its entries and keys against a stable sort of row ids by the
// key columns' OrderedBits images, and that `fallbacks` of its passes fell
// back to the radix sort.
void ExpectBitsOrder(const Columns& cols, const std::vector<bool>& is_int,
                     const std::vector<int>& key, int64_t fallbacks) {
  auto db = std::make_unique<Database>("bits_db");
  auto t = std::make_unique<Table>("t");
  for (size_t c = 0; c < cols.size(); ++c) {
    const DataType type = is_int[c] ? DataType::kInt64 : DataType::kDouble;
    Column* col = t->AddColumn(StrFormat("c%zu", c), type);
    for (double v : cols[c]) {
      if (is_int[c]) {
        col->AppendInt(static_cast<int64_t>(v));
      } else {
        col->AppendDouble(v);
      }
    }
  }
  t->SealRows();
  db->AddTable(std::move(t));

  auto image = [&](uint32_t r) {
    std::vector<uint64_t> out;
    for (int c : key) {
      out.push_back(OrderedBits(cols[static_cast<size_t>(c)][r]));
    }
    return out;
  };
  std::vector<uint32_t> want(cols[0].size());
  std::iota(want.begin(), want.end(), 0u);
  std::stable_sort(want.begin(), want.end(), [&](uint32_t a, uint32_t b) {
    return image(a) < image(b);
  });
  std::vector<uint64_t> want_keys;
  for (uint32_t r : want) {
    for (int c : key) {
      want_keys.push_back(
          std::bit_cast<uint64_t>(cols[static_cast<size_t>(c)][r]));
    }
  }

  const int64_t fallbacks0 = RadixFallbacks();
  BTreeIndex idx(*db, KeyOn(key));
#if !defined(AIMAI_OBS_DISABLED)
  EXPECT_EQ(RadixFallbacks() - fallbacks0, fallbacks);
#else
  (void)fallbacks0;
  (void)fallbacks;
#endif
  ASSERT_EQ(idx.ScanAll(), want);
  std::vector<uint64_t> got_keys;
  for (double v : idx.keys()) got_keys.push_back(std::bit_cast<uint64_t>(v));
  ASSERT_EQ(got_keys, want_keys);
}

void ExpectBitsOrder(const std::vector<double>& col, int64_t fallbacks) {
  ExpectBitsOrder({col}, {false}, {0}, fallbacks);
}

TEST(BTreeBucketTest, UniformDoublesTakeTheBucketPass) {
  Rng rng(51);
  for (size_t n : {size_t{2}, size_t{65}, size_t{5000}, size_t{40000}}) {
    std::vector<double> col;
    for (size_t i = 0; i < n; ++i) col.push_back(rng.Uniform(-3.0, 1e4));
    ExpectBitsOrder(col, 0);
  }
  // Equal values stay in row-id order: every value twice, far apart.
  std::vector<double> twice;
  for (int i = 0; i < 3000; ++i) twice.push_back(rng.Uniform(0.0, 0.1));
  std::vector<double> copy = twice;
  rng.Shuffle(&copy);
  twice.insert(twice.end(), copy.begin(), copy.end());
  ExpectBitsOrder(twice, 0);
}

TEST(BTreeBucketTest, HeavyDuplicatesFallBackToRadix) {
  Rng rng(52);
  std::vector<double> col;
  for (int i = 0; i < 3000; ++i) {
    col.push_back(0.25 * static_cast<double>(rng.UniformInt(-4, 4)));
  }
  ExpectBitsOrder(col, 1);

  // One crowded slice is enough: a single far outlier squeezes every
  // other value into the first slice.
  std::vector<double> outlier;
  for (int i = 0; i < 2000; ++i) outlier.push_back(rng.Uniform(0.0, 1.0));
  outlier.push_back(1e300);
  ExpectBitsOrder(outlier, 1);

  // At most kMaxBucketEntries copies of one value still fit one bucket.
  const size_t run = BTreeIndex::kMaxBucketEntries;
  std::vector<double> edge(run, 7.5);
  for (size_t i = 0; i < 4 * run; ++i) edge.push_back(rng.Uniform(-1.0, 1.0));
  rng.Shuffle(&edge);
  ExpectBitsOrder(edge, 0);
  edge.push_back(7.5);
  ExpectBitsOrder(edge, 1);
}

TEST(BTreeBucketTest, SpecialValuesInOneColumn) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double max = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double specials[] = {nan,       -nan,      inf,       -inf,
                             0.0,       -0.0,      tiny,      -tiny,
                             3 * tiny,  -7 * tiny, max,       -max,
                             std::numeric_limits<double>::min()};
  Rng rng(53);
  // Values spread over all of [-DBL_MAX, DBL_MAX] keep every slice short,
  // so the specials ride the bucket pass: NaN and inf of each sign in the
  // end buckets, zeros and denormals together in a middle one.
  std::vector<double> col;
  for (int i = 0; i < 4000; ++i) col.push_back(rng.Uniform(-1.0, 1.0) * max);
  for (int k = 0; k < 3; ++k) {
    for (double v : specials) col.push_back(v);
  }
  rng.Shuffle(&col);
  ExpectBitsOrder(col, 0);

  // Specials only: no finite range to slice beyond ±DBL_MAX and denormals.
  std::vector<double> few(std::begin(specials), std::end(specials));
  few.insert(few.end(), std::begin(specials), std::end(specials));
  rng.Shuffle(&few);
  ExpectBitsOrder(few, 0);
  ExpectBitsOrder({nan, -nan, nan, inf, -inf, -nan}, 0);
  ExpectBitsOrder({tiny, 2 * tiny, tiny, 0.0, -0.0}, 0);

  // The same specials among ordinary values, where they crowd nothing.
  std::vector<double> mixed;
  for (int i = 0; i < 3000; ++i) mixed.push_back(rng.Uniform(-50.0, 50.0));
  for (double v : specials) mixed.push_back(v);
  rng.Shuffle(&mixed);
  ExpectBitsOrder(mixed, 1);  // ±DBL_MAX put all of [-50, 50] in a slice.
}

TEST(BTreeBucketTest, CompositeDoubleAndIntKeys) {
  // Column 0: doubles from a pool (so ties need the other column) with a
  // few NaNs and signed zeros; column 1: small ints (counting sort).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(54);
  std::vector<double> pool;
  for (int i = 0; i < 1500; ++i) pool.push_back(rng.Uniform(-1e3, 1e3));
  Columns cols(2);
  for (int i = 0; i < 6000; ++i) {
    double v = pool[rng.Index(pool.size())];
    if (rng.Bernoulli(0.003)) v = rng.Bernoulli(0.5) ? nan : -nan;
    if (rng.Bernoulli(0.003)) v = rng.Bernoulli(0.5) ? 0.0 : -0.0;
    cols[0].push_back(v);
    cols[1].push_back(static_cast<double>(rng.UniformInt(0, 9)));
  }
  ExpectBitsOrder(cols, {false, true}, {0, 1}, 0);
  ExpectBitsOrder(cols, {false, true}, {1, 0}, 0);
}

// The build span and counter record cache misses only. Recording is
// compiled out under -DAIMAI_OBS_DISABLE=ON.
#if !defined(AIMAI_OBS_DISABLED)
TEST(IndexManagerTest, BuildSpanCountsOnlyCacheMisses) {
  auto db = MakeDb(300, 40, 11);
  IndexManager indexes(db.get());
  obs::Counter* builds = obs::Registry().GetCounter("index.builds");
  obs::Histogram* span = obs::Registry().GetHistogram("index.build.ns");
  const int64_t builds0 = builds->value();
  const int64_t spans0 = span->count();
  const BTreeIndex* first = indexes.GetOrBuild(SingleCol());
  EXPECT_EQ(indexes.GetOrBuild(SingleCol()), first);
  EXPECT_EQ(builds->value() - builds0, 1);
  EXPECT_EQ(span->count() - spans0, 1);
}

// An index's entries depend only on its table and ordered key columns, so
// variants that differ in their INCLUDE columns share one build.
TEST(IndexManagerTest, IncludeOnlyVariantsShareOneBuild) {
  Rng rng(13);
  Columns cols(3);
  for (int i = 0; i < 300; ++i) {
    for (auto& col : cols) col.push_back(static_cast<double>(rng.Index(40)));
  }
  auto db = MakeDoubleDb(cols);
  IndexManager indexes(db.get());
  obs::Counter* builds = obs::Registry().GetCounter("index.builds");
  const int64_t builds0 = builds->value();
  IndexDef bare = KeyOn({0});
  IndexDef with_b = KeyOn({0});
  with_b.include_columns = {1};
  IndexDef with_bc = KeyOn({0});
  with_bc.include_columns = {1, 2};
  IndexDef with_cb = KeyOn({0});
  with_cb.include_columns = {2, 1};
  const BTreeIndex* first = indexes.GetOrBuild(with_b);
  EXPECT_EQ(indexes.GetOrBuild(bare), first);
  EXPECT_EQ(indexes.GetOrBuild(with_bc), first);
  EXPECT_EQ(indexes.GetOrBuild(with_cb), first);
  EXPECT_EQ(builds->value() - builds0, 1);
  EXPECT_EQ(indexes.num_built(), 1u);
  EXPECT_EQ(first->table_id(), 0);
  EXPECT_EQ(first->key_columns(), std::vector<int>{0});

  // Key order and key width make separate builds.
  IndexDef ab = KeyOn({0, 1});
  ab.include_columns = {1};
  const BTreeIndex* wide = indexes.GetOrBuild(ab);
  const BTreeIndex* swapped = indexes.GetOrBuild(KeyOn({1, 0}));
  EXPECT_NE(wide, first);
  EXPECT_NE(swapped, wide);
  EXPECT_NE(swapped, first);
  EXPECT_EQ(indexes.GetOrBuild(KeyOn({0, 1})), wide);
  EXPECT_EQ(builds->value() - builds0, 3);
  EXPECT_EQ(indexes.num_built(), 3u);

  // Materializing a configuration of include variants builds nothing new.
  Configuration config;
  config.Add(bare);
  config.Add(with_b);
  config.Add(with_cb);
  config.Add(ab);
  indexes.Materialize(config);
  EXPECT_EQ(builds->value() - builds0, 3);
  EXPECT_EQ(indexes.num_built(), 3u);
}
#endif  // !AIMAI_OBS_DISABLED

}  // namespace
}  // namespace aimai
