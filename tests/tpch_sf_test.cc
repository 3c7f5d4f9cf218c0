// Tests for the TPC-H-scale workload family (workloads/tpch_sf.h): row
// counts track the fractional scale factor, generation is bit-identical
// serial vs pooled and across rebuilds, dictionaries stay sorted past the
// 10^6-entry mark (regression: a fixed %06lld pad used to break
// lexicographic order there), foreign keys reference their parents, and
// every query family is optimizable under C0.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "storage/data_generator.h"
#include "workloads/tpch_sf.h"

namespace aimai {
namespace {

std::vector<uint64_t> Fingerprints(BenchmarkDatabase* bdb) {
  std::vector<uint64_t> fps;
  for (int t = 0; t < bdb->db()->num_tables(); ++t) {
    fps.push_back(bdb->db()->table(t).ContentFingerprint());
  }
  return fps;
}

size_t Rows(BenchmarkDatabase* bdb, const std::string& table) {
  const int t = bdb->db()->FindTable(table);
  EXPECT_GE(t, 0) << table;
  return bdb->db()->table(t).num_rows();
}

TEST(TpchSfTest, RowsTrackScaleFactor) {
  EXPECT_EQ(TpchSfRows(1.0, kTpchSfLineitemBase), 6'000'000u);
  EXPECT_EQ(TpchSfRows(0.01, kTpchSfLineitemBase), 60'000u);
  EXPECT_EQ(TpchSfRows(0.001, kTpchSfSupplierBase), 10u);
  // Never below one row, even at absurdly small SF.
  EXPECT_EQ(TpchSfRows(1e-9, kTpchSfSupplierBase), 1u);

  TpchSfOptions tiny;
  tiny.sf = 0.001;
  tiny.seed = 91;
  auto small = BuildTpchSf("sf_tiny", tiny);
  TpchSfOptions smoke = tiny;
  smoke.sf = 0.01;
  auto big = BuildTpchSf("sf_smoke", smoke);

  // SF 0.001 -> 0.01 is exactly 10x on every scaled table; nation and
  // region stay fixed.
  for (const char* t : {"lineitem", "orders", "partsupp", "part",
                        "customer", "supplier"}) {
    EXPECT_EQ(Rows(big.get(), t), 10 * Rows(small.get(), t)) << t;
  }
  EXPECT_EQ(Rows(small.get(), "lineitem"), 6000u);
  EXPECT_EQ(Rows(big.get(), "lineitem"), 60'000u);
  EXPECT_EQ(Rows(small.get(), "nation"), 25u);
  EXPECT_EQ(Rows(big.get(), "nation"), 25u);
  EXPECT_EQ(Rows(small.get(), "region"), 5u);
}

TEST(TpchSfTest, ParallelFillBitIdenticalToSerial) {
  TpchSfOptions opts;
  opts.sf = 0.01;
  opts.seed = 92;
  opts.pool = nullptr;
  auto serial = BuildTpchSf("sf_ser", opts);
  const std::vector<uint64_t> fp = Fingerprints(serial.get());

  // Same seed, fresh build: identical content.
  auto again = BuildTpchSf("sf_ser", opts);
  EXPECT_EQ(Fingerprints(again.get()), fp);

  // Pooled build: bit-identical — the fill plan pins each task's Rng
  // stream at registration, so scheduling cannot leak into the data.
  ThreadPool pool(4);
  opts.pool = &pool;
  auto pooled = BuildTpchSf("sf_ser", opts);
  EXPECT_EQ(Fingerprints(pooled.get()), fp);

  // A different seed must actually change the data.
  opts.seed = 93;
  auto other = BuildTpchSf("sf_ser", opts);
  EXPECT_NE(Fingerprints(other.get()), fp);
}

// Pins every table's ContentFingerprint at SF 0.05, the size perfbench
// collects on: Zipf foreign keys over ~75k orders and bucket-correlated
// dictionaries over ~300k lineitems, so a generator change that moves one
// bit of the large fills fails here first.
TEST(TpchSfTest, GoldenFingerprintsAtSf005) {
  TpchSfOptions opts;
  opts.sf = 0.05;
  opts.seed = 42;
  auto bdb = BuildTpchSf("tpch_sf", opts);
  const std::vector<std::pair<std::string, uint64_t>> want = {
      {"region", 0x37d12da54e5c05cdull},
      {"nation", 0x696425c908fabd28ull},
      {"supplier", 0xc0dc314396066c90ull},
      {"customer", 0x6fcda6e2c2cd34b3ull},
      {"part", 0x56c5a54458372c90ull},
      {"partsupp", 0x9dce1a072c6ca28bull},
      {"orders", 0x30c36e94e10d45f9ull},
      {"lineitem", 0xde8993ff3f02c177ull},
  };
  ASSERT_EQ(static_cast<size_t>(bdb->db()->num_tables()), want.size());
  for (size_t t = 0; t < want.size(); ++t) {
    const Table& table = bdb->db()->table(static_cast<int>(t));
    EXPECT_EQ(table.name(), want[t].first);
    EXPECT_EQ(table.ContentFingerprint(), want[t].second)
        << table.name() << ": got 0x" << std::hex
        << table.ContentFingerprint();
  }
}

// Regression: the dictionary builder used a fixed %06lld pad, so at
// vocab >= 10^6 entry "p1000000" sorted before "p999999" and the sorted-
// dictionary CHECK in Column::SetDictionary aborted. On the old code this
// test dies; on the fixed code the pad widens with the vocabulary.
TEST(TpchSfTest, DictionaryStaysSortedPastMillionEntries) {
  constexpr int64_t kVocab = 1'000'100;
  Column col("big_dict", DataType::kString);
  DataGenerator gen{Rng(5)};
  gen.FillDictString(&col, 64, kVocab, 0.0, "p");
  const std::vector<std::string>& dict = col.dictionary();
  ASSERT_EQ(dict.size(), static_cast<size_t>(kVocab));
  EXPECT_TRUE(std::is_sorted(dict.begin(), dict.end()));
  // Seven digits now: the millionth entry no longer collides widths.
  EXPECT_EQ(dict.front(), "p0000000");
  EXPECT_EQ(dict.back(), "p1000099");
}

TEST(TpchSfTest, SmallVocabPadStaysSixDigits) {
  // Existing workloads rely on the historical 6-digit pad staying put —
  // widening it would silently change every small-vocab dictionary (and
  // with it all seeded expectations downstream).
  Column col("small_dict", DataType::kString);
  DataGenerator gen{Rng(6)};
  gen.FillDictString(&col, 16, 10, 0.0, "seg");
  EXPECT_EQ(col.dictionary().front(), "seg000000");
  EXPECT_EQ(col.dictionary().back(), "seg000009");
}

TEST(TpchSfTest, ForeignKeysReferenceParents) {
  TpchSfOptions opts;
  opts.sf = 0.002;
  opts.seed = 94;
  auto bdb = BuildTpchSf("sf_fk", opts);
  const Database& db = *bdb->db();

  auto check_fk = [&](const std::string& child, const std::string& col,
                      const std::string& parent) {
    const Table& c = db.table(db.FindTable(child));
    const int ci = c.ColumnIndex(col);
    ASSERT_GE(ci, 0) << child << "." << col;
    const int64_t parent_rows =
        static_cast<int64_t>(db.table(db.FindTable(parent)).num_rows());
    for (size_t r = 0; r < c.num_rows(); ++r) {
      const int64_t v = c.column(static_cast<size_t>(ci)).GetInt(r);
      ASSERT_GE(v, 0) << child << "." << col << " row " << r;
      ASSERT_LT(v, parent_rows) << child << "." << col << " row " << r;
    }
  };
  check_fk("nation", "n_regionkey", "region");
  check_fk("supplier", "s_nationkey", "nation");
  check_fk("customer", "c_nationkey", "nation");
  check_fk("partsupp", "ps_partkey", "part");
  check_fk("partsupp", "ps_suppkey", "supplier");
  check_fk("orders", "o_custkey", "customer");
  check_fk("lineitem", "l_orderkey", "orders");
  check_fk("lineitem", "l_partkey", "part");
  check_fk("lineitem", "l_suppkey", "supplier");
}

TEST(TpchSfTest, QueriesWellFormedAndOptimizable) {
  TpchSfOptions opts;
  opts.sf = 0.002;
  opts.seed = 95;
  opts.instances_per_family = 2;
  auto bdb = BuildTpchSf("sf_q", opts);
  // Six families x instances_per_family.
  EXPECT_EQ(bdb->queries().size(), 12u);
  std::set<std::string> names;
  for (const QuerySpec& q : bdb->queries()) {
    EXPECT_TRUE(names.insert(q.name).second) << "duplicate " << q.name;
    ASSERT_FALSE(q.tables.empty()) << q.name;
    std::set<int> tset(q.tables.begin(), q.tables.end());
    EXPECT_EQ(tset.size(), q.tables.size()) << q.name;
    EXPECT_EQ(q.joins.size(), q.tables.size() - 1) << q.name;
    for (const Predicate& p : q.predicates) {
      EXPECT_TRUE(tset.count(p.table_id)) << q.name;
    }
    const auto plan = bdb->what_if()->Optimize(q, bdb->initial_config());
    ASSERT_NE(plan, nullptr) << q.name;
    EXPECT_GT(plan->est_total_cost, 0) << q.name;
  }
}

}  // namespace
}  // namespace aimai
