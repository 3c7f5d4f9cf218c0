// Property tests for the cardinality-estimation substrate: histogram
// range estimates vs. brute force on uniform data (where the textbook
// assumptions hold and the estimates must be tight), the documented
// failure modes on skewed data (where they must NOT be tight — that gap
// is the paper's premise, so we pin it with tests), and the O(n) build
// against the sort-based build it replaced, bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "optimizer/histogram.h"
#include "storage/data_generator.h"
#include "workloads/query_stream.h"

namespace aimai {
namespace {

double TrueSelectivity(const Column& c, const NumericBounds& b) {
  size_t hits = 0;
  for (size_t i = 0; i < c.size(); ++i) {
    if (b.Contains(c.NumericAt(i))) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(c.size());
}

class UniformRangeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UniformRangeProperty, RangeEstimatesTightOnUniformData) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  DataGenerator gen(Rng{seed + 1});
  Column c("x", DataType::kInt64);
  const int64_t domain = 50 + rng.UniformInt(0, 2000);
  gen.FillUniformInt(&c, 20000, 0, domain);
  const Histogram h = Histogram::Build(c, 8);

  for (int trial = 0; trial < 20; ++trial) {
    NumericBounds b;
    b.has_lo = rng.Bernoulli(0.8);
    b.has_hi = true;
    b.lo = static_cast<double>(rng.UniformInt(0, domain));
    b.hi = b.lo + static_cast<double>(rng.UniformInt(1, domain));
    const double est = h.EstimateSelectivity(b);
    const double truth = TrueSelectivity(c, b);
    EXPECT_NEAR(est, truth, 0.05) << "seed=" << seed << " trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UniformRangeProperty,
                         ::testing::Range<uint64_t>(0, 8));

TEST(SkewFailureModeTest, PointEstimateUnderestimatesHeavyHitter) {
  DataGenerator gen(Rng{3});
  Column c("x", DataType::kInt64);
  gen.FillZipfInt(&c, 30000, 0, 200, 1.0);
  const Histogram h = Histogram::Build(c, 8);
  NumericBounds heavy;
  heavy.has_lo = heavy.has_hi = true;
  heavy.lo = heavy.hi = 0;
  const double est = h.EstimateSelectivity(heavy);
  const double truth = TrueSelectivity(c, heavy);
  // The uniform-frequency assumption must underestimate by a lot here —
  // the engineered failure mode behind Figure 1.
  EXPECT_LT(est, truth / 3) << "est=" << est << " truth=" << truth;
}

TEST(SkewFailureModeTest, IndependenceOverestimatesCorrelatedConjunction) {
  // Two perfectly correlated columns: the conjunction's true selectivity
  // equals a single predicate's, but independence multiplies them.
  DataGenerator gen(Rng{4});
  Column a("a", DataType::kInt64);
  gen.FillUniformInt(&a, 20000, 0, 999);
  Column b("b", DataType::kInt64);
  gen.FillCorrelatedInt(&b, a, 20000, 1.0, 0);  // b == a.
  const Histogram ha = Histogram::Build(a, 8);
  const Histogram hb = Histogram::Build(b, 8);

  NumericBounds r;
  r.has_lo = r.has_hi = true;
  r.lo = 100;
  r.hi = 299;
  const double sel_a = ha.EstimateSelectivity(r);
  const double sel_b = hb.EstimateSelectivity(r);
  const double independent = sel_a * sel_b;  // What the estimator assumes.
  // The true conjunction selectivity is ~0.2; the independent product is
  // ~0.04 — a 5x underestimate.
  double truth = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (r.Contains(a.NumericAt(i)) && r.Contains(b.NumericAt(i))) ++truth;
  }
  truth /= static_cast<double>(a.size());
  EXPECT_LT(independent, truth / 3);
}

TEST(SkewFailureModeTest, RankCorrelatedDictAlignsWithKeySkew) {
  // The generator trap from DESIGN.md: dimension attribute rank-correlated
  // with the key, plus a Zipf FK concentrated on low keys. Selecting the
  // heavy attribute value must select far more FK mass than its row share.
  DataGenerator gen(Rng{5});
  const size_t n_dim = 1000;
  Column pk("pk", DataType::kInt64);
  gen.FillSequentialInt(&pk, n_dim);
  Column attr("s", DataType::kString);
  gen.FillBucketCorrelatedDict(&attr, pk, n_dim, 5, 0.9, 0.1, "v");
  Column fk("fk", DataType::kInt64);
  gen.FillForeignKey(&fk, 20000, static_cast<int64_t>(n_dim), 0.9);

  // Heavy attribute value = code 0; its row share among dimension rows.
  size_t rows_with_0 = 0;
  for (size_t i = 0; i < n_dim; ++i) {
    if (attr.GetCode(i) == 0) ++rows_with_0;
  }
  const double row_share =
      static_cast<double>(rows_with_0) / static_cast<double>(n_dim);

  // FK mass landing on those dimension rows.
  size_t fk_hits = 0;
  for (size_t i = 0; i < fk.size(); ++i) {
    const size_t parent = static_cast<size_t>(fk.GetInt(i));
    if (attr.GetCode(parent) == 0) ++fk_hits;
  }
  const double fk_share =
      static_cast<double>(fk_hits) / static_cast<double>(fk.size());

  // The join-skew correlation: FK mass share must exceed the row share by
  // a wide margin (the optimizer assumes they're equal).
  EXPECT_GT(fk_share, row_share * 1.5)
      << "row_share=" << row_share << " fk_share=" << fk_share;
}

TEST(HistogramEdgeTest, SingleValueDomain) {
  Column c("x", DataType::kInt64);
  for (int i = 0; i < 100; ++i) c.AppendInt(7);
  const Histogram h = Histogram::Build(c, 8);
  EXPECT_DOUBLE_EQ(h.distinct_count(), 1);
  NumericBounds eq;
  eq.has_lo = eq.has_hi = true;
  eq.lo = eq.hi = 7;
  EXPECT_DOUBLE_EQ(h.EstimateSelectivity(eq), 1.0);
  eq.lo = eq.hi = 8;
  EXPECT_DOUBLE_EQ(h.EstimateSelectivity(eq), 0.0);
}

TEST(HistogramEdgeTest, EmptyColumn) {
  Column c("x", DataType::kInt64);
  const Histogram h = Histogram::Build(c, 8);
  NumericBounds any;
  any.has_lo = true;
  any.lo = 0;
  EXPECT_DOUBLE_EQ(h.EstimateSelectivity(any), 0.0);
}

// The sort-based build the O(n) one replaced, kept as the oracle: copy
// the numeric view, sort, count a value as distinct where it differs from
// its sorted predecessor. NaN rows are dropped up front (the documented
// rule; sorting them was undefined) but still counted in `total`.
struct OracleHistogram {
  double min = 0;
  double max = 0;
  double total = 0;
  double distinct_total = 0;
  std::vector<double> counts;
  std::vector<double> distincts;
};

OracleHistogram SortBasedBuild(const Column& col, int num_buckets) {
  OracleHistogram h;
  h.total = static_cast<double>(col.size());
  h.counts.assign(static_cast<size_t>(num_buckets), 0);
  h.distincts.assign(static_cast<size_t>(num_buckets), 0);
  std::vector<double> values;
  for (size_t r = 0; r < col.size(); ++r) {
    if (!std::isnan(col.NumericAt(r))) values.push_back(col.NumericAt(r));
  }
  if (values.empty()) return h;
  auto [mn, mx] = std::minmax_element(values.begin(), values.end());
  h.min = *mn;
  h.max = *mx;
  const double span = h.max - h.min;
  const double width = span <= 0 ? 0 : span / static_cast<double>(num_buckets);
  std::sort(values.begin(), values.end());
  double prev = std::numeric_limits<double>::quiet_NaN();
  for (double v : values) {
    int b = width > 0 ? static_cast<int>((v - h.min) / width) : 0;
    b = std::max(0, std::min(num_buckets - 1, b));
    h.counts[static_cast<size_t>(b)] += 1;
    if (v != prev) {
      h.distincts[static_cast<size_t>(b)] += 1;
      h.distinct_total += 1;
      prev = v;
    }
  }
  return h;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out;
  for (double x : v) out.push_back(Bits(x));
  return out;
}

void ExpectMatchesOracle(const Column& col, int num_buckets,
                         const std::string& what) {
  const Histogram h = Histogram::Build(col, num_buckets);
  const OracleHistogram o = SortBasedBuild(col, num_buckets);
  EXPECT_EQ(Bits(h.min()), Bits(o.min)) << what;
  EXPECT_EQ(Bits(h.max()), Bits(o.max)) << what;
  EXPECT_EQ(Bits(h.row_count()), Bits(o.total)) << what;
  EXPECT_EQ(Bits(h.distinct_count()), Bits(o.distinct_total)) << what;
  EXPECT_EQ(Bits(h.bucket_counts()), Bits(o.counts)) << what;
  EXPECT_EQ(Bits(h.bucket_distincts()), Bits(o.distincts)) << what;
}

Column DoubleColumn(const std::vector<double>& values) {
  Column c("d", DataType::kDouble);
  for (double v : values) c.AppendDouble(v);
  return c;
}

Column IntColumn(const std::vector<int64_t>& values) {
  Column c("i", DataType::kInt64);
  for (int64_t v : values) c.AppendInt(v);
  return c;
}

class HistogramOracleProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramOracleProperty, RandomColumnsMatchSortBasedBuild) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t n = 1 + rng.Index(5000);
  const int64_t domain = 1 + rng.UniformInt(0, 3000);

  Column ints("i", DataType::kInt64);
  Column doubles("d", DataType::kDouble);
  Column codes("s", DataType::kString);
  std::vector<std::string> dict;
  for (int64_t k = 0; k < domain; ++k) {
    dict.push_back(StrFormat("v%lld", static_cast<long long>(k)));
  }
  std::sort(dict.begin(), dict.end());
  codes.SetDictionary(dict);
  for (size_t r = 0; r < n; ++r) {
    ints.AppendInt(rng.UniformInt(-domain, domain));
    doubles.AppendDouble(rng.Bernoulli(0.3)
                             ? static_cast<double>(rng.UniformInt(-9, 9))
                             : rng.Uniform(-1e4, 1e4));
    codes.AppendCode(static_cast<int32_t>(rng.UniformInt(0, domain - 1)));
  }
  for (int buckets : {1, 3, 8, 64}) {
    const std::string tag = "seed=" + std::to_string(seed) +
                            " buckets=" + std::to_string(buckets);
    ExpectMatchesOracle(ints, buckets, "ints " + tag);
    ExpectMatchesOracle(doubles, buckets, "doubles " + tag);
    ExpectMatchesOracle(codes, buckets, "codes " + tag);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramOracleProperty,
                         ::testing::Range<uint64_t>(0, 12));

TEST(HistogramOracleTest, EdgeColumnsMatchSortBasedBuild) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> cases = {
      {},
      {4.5},
      {-3, -3, -3, -3},
      // ±0.0 ties: min/max keep minmax_element's first smallest and last
      // largest, and the two zeros are one distinct value.
      {-0.0, 0.0, -0.0, 0.0},
      {0.0, -0.0, 1.0, 1.0, -0.0},
      {1.0, -0.0, 0.0, -1.0, 0.0, -0.0, -1.0},
      {-1e300, -2.5, -2.5, -1e-300, -std::numeric_limits<double>::denorm_min()},
      {-7, 3, -7, 3, 3, 11, -7, 0.5, 0.5, 11},
      {-1e308, 0.5e308, 0.0, 1e-308},
      {-inf, -inf, -inf},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    for (int buckets : {1, 2, 8}) {
      ExpectMatchesOracle(DoubleColumn(cases[i]), buckets,
                          "case " + std::to_string(i));
    }
  }
}

TEST(HistogramOracleTest, WideIntsMatchSortBasedBuild) {
  // Past ±2^53 neighbouring int64 values round to one double; distinct
  // counts are over the numeric (double) view, as before.
  constexpr int64_t k53 = int64_t{1} << 53;
  std::vector<int64_t> values = {k53,     k53 + 1, k53 + 2, k53 + 3,
                                 -k53,    -k53 - 1, -k53 - 3,
                                 std::numeric_limits<int64_t>::max(),
                                 std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max() - 1,
                                 0, -1, 1};
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(rng.UniformInt(-4, 4) * (k53 / 4) + rng.UniformInt(-5, 5));
  }
  for (int buckets : {1, 8}) {
    ExpectMatchesOracle(IntColumn(values), buckets, "wide ints");
  }
  // A narrow span just past 2^53 (and one reaching it from inside):
  // neighbouring integers share a double there, so distinct values are
  // counted over doubles.
  for (const int64_t lo : {k53 - 3, -k53 - 3, k53 - 20}) {
    std::vector<int64_t> narrow;
    for (int i = 0; i < 300; ++i) narrow.push_back(lo + i % 9);
    ExpectMatchesOracle(IntColumn(narrow), 8, "narrow " + std::to_string(lo));
  }
}

// Integer columns whose span is below their row count are counted in a
// dense array; the rest fall back to the hash set. Both must equal the
// sort-based build, at and around the switch.
TEST(HistogramOracleTest, DenseCountPathMatchesSortBasedBuild) {
  constexpr int64_t k53 = int64_t{1} << 53;
  Rng rng(17);
  std::vector<std::pair<std::string, std::vector<int64_t>>> cases;
  cases.reserve(16);
  auto uniform = [&rng](size_t n, int64_t lo, int64_t hi) {
    std::vector<int64_t> v;
    for (size_t r = 0; r < n; ++r) v.push_back(rng.UniformInt(lo, hi));
    return v;
  };
  cases.emplace_back("dense", uniform(1000, 0, 99));
  cases.emplace_back("dense negative", uniform(1000, -250, -1));
  cases.emplace_back("dense across zero", uniform(777, -40, 40));
  cases.emplace_back("fallback sparse", uniform(100, -1000000, 1000000));
  cases.emplace_back("single value", std::vector<int64_t>(300, -12));
  cases.emplace_back("single row", std::vector<int64_t>{5});
  // Span n - 1 is dense, span n falls back.
  std::vector<int64_t> edge_dense = uniform(64, 10, 73);
  edge_dense[0] = 10;
  edge_dense[1] = 73;
  cases.emplace_back("span n-1", edge_dense);
  std::vector<int64_t> edge_sparse = edge_dense;
  edge_sparse[1] = 74;
  cases.emplace_back("span n", edge_sparse);
  // Dense up to ±2^53 exactly; one past it neighbouring integers share a
  // double, so the column falls back and counts distinct doubles.
  cases.emplace_back("ending at 2^53", uniform(500, k53 - 40, k53));
  cases.emplace_back("starting at -2^53", uniform(500, -k53, -k53 + 40));
  cases.emplace_back("past 2^53", uniform(500, k53 - 40, k53 + 40));
  cases.emplace_back("past -2^53", uniform(500, -k53 - 40, -k53 + 40));
  for (const auto& [name, values] : cases) {
    for (int buckets : {1, 3, 8, 64}) {
      ExpectMatchesOracle(IntColumn(values), buckets,
                          name + " buckets=" + std::to_string(buckets));
    }
  }

  // Dictionary codes: a full dictionary (dense) and a large one with few
  // rows (sparse codes, fallback).
  for (const auto& [dict_size, rows] :
       {std::pair<int, size_t>{40, 2000}, std::pair<int, size_t>{5000, 50}}) {
    std::vector<std::string> dict;
    for (int k = 0; k < dict_size; ++k) dict.push_back(StrFormat("w%05d", k));
    Column codes("s", DataType::kString);
    codes.SetDictionary(dict);
    for (size_t r = 0; r < rows; ++r) {
      codes.AppendCode(static_cast<int32_t>(rng.UniformInt(0, dict_size - 1)));
    }
    for (int buckets : {1, 8, 64}) {
      ExpectMatchesOracle(codes, buckets,
                          "codes dict=" + std::to_string(dict_size));
    }
  }
}

TEST(HistogramNanTest, NanRowsCountTowardRowCountOnly) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Column with_nan = DoubleColumn({nan, 2.0, -nan, 5.0, 2.0, nan, 9.0});
  const Column without = DoubleColumn({2.0, 5.0, 2.0, 9.0});
  ExpectMatchesOracle(with_nan, 4, "nan");
  const Histogram h = Histogram::Build(with_nan, 4);
  const Histogram clean = Histogram::Build(without, 4);
  EXPECT_EQ(h.row_count(), 7);
  EXPECT_EQ(h.min(), 2.0);
  EXPECT_EQ(h.max(), 9.0);
  EXPECT_EQ(h.distinct_count(), 3);
  EXPECT_EQ(h.bucket_counts(), clean.bucket_counts());
  EXPECT_EQ(h.bucket_distincts(), clean.bucket_distincts());
  // A range over every value selects the non-NaN share of the rows.
  NumericBounds all;
  all.has_lo = all.has_hi = true;
  all.lo = 2;
  all.hi = 9;
  EXPECT_DOUBLE_EQ(h.EstimateSelectivity(all), 4.0 / 7.0);

  // An all-NaN column observes no value: every estimate is 0.
  const Histogram only_nan = Histogram::Build(DoubleColumn({nan, -nan}), 4);
  ExpectMatchesOracle(DoubleColumn({nan, -nan}), 4, "all nan");
  EXPECT_EQ(only_nan.row_count(), 2);
  EXPECT_EQ(only_nan.distinct_count(), 0);
  NumericBounds zero;
  zero.has_lo = zero.has_hi = true;
  zero.lo = zero.hi = 0;
  EXPECT_EQ(only_nan.EstimateSelectivity(zero), 0);
  EXPECT_EQ(only_nan.EstimateSelectivity(all), 0);
}

TEST(HistogramEdgeTest, OverflowingSpanKeepsEveryRowInABucket) {
  // max - min overflows to inf, so the bucket width is inf: finite offsets
  // land in bucket 0, and the largest value's position inf / inf lands in
  // the last bucket instead of an undefined cast.
  const Histogram h = Histogram::Build(
      DoubleColumn({std::numeric_limits<double>::lowest(), 0.0,
                    std::numeric_limits<double>::max()}),
      4);
  EXPECT_EQ(h.bucket_counts(), (std::vector<double>{2, 0, 0, 1}));
  EXPECT_EQ(h.distinct_count(), 3);
}

// Every column of every generated workload family: the statistics the
// optimizer sees, and so every plan and digest, are unchanged.
TEST(HistogramOracleTest, GeneratedWorkloadColumnsMatchSortBasedBuild) {
  std::vector<QueryStreamSpec> specs = {
      {.kind = "tpch_sf", .sf = 0.005, .seed = 1},
      {.kind = "tpcds", .seed = 2},
      {.kind = "synthetic", .seed = 3},
  };
  for (int p = 1; p <= 11; ++p) {
    specs.push_back({.kind = "customer" + std::to_string(p), .seed = 4});
  }
  size_t columns = 0;
  for (const QueryStreamSpec& spec : specs) {
    auto gen = MakePreparedQueryStream(spec);
    ASSERT_TRUE(gen.ok()) << spec.kind << ": " << gen.status().ToString();
    const std::unique_ptr<BenchmarkDatabase> bdb = (*gen)->TakeDatabase();
    const Database& db = *bdb->db();
    for (int t = 0; t < db.num_tables(); ++t) {
      const Table& table = db.table(t);
      for (size_t c = 0; c < table.num_columns(); ++c) {
        ExpectMatchesOracle(table.column(c), 8,
                            spec.kind + "." + table.name() + "." +
                                table.column(c).name());
        ++columns;
      }
    }
  }
  EXPECT_GT(columns, 100u);
}

}  // namespace
}  // namespace aimai
