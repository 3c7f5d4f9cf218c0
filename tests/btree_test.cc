// Unit & property tests for the B+-tree index: seeks validated against a
// brute-force oracle over random data, keys, and ranges.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <set>
#include <string>

#include "catalog/database.h"
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
    Column* col = t->AddColumn("c" + std::to_string(c), DataType::kDouble);
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

void ExpectMatchesOracle(const Columns& cols, const std::vector<int>& key,
                         uint64_t seed) {
  auto db = MakeDoubleDb(cols);
  BTreeIndex idx(*db, KeyOn(key));
  const std::vector<uint32_t> order = OracleOrder(cols, key);
  ASSERT_EQ(idx.ScanAll(), order);

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
#endif  // !AIMAI_OBS_DISABLED

}  // namespace
}  // namespace aimai
