// Unit tests for workloads/: generators produce well-formed databases and
// queries; the collection driver produces consistent repositories.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "obs/obs.h"
#include "storage/data_generator.h"
#include "workloads/collection.h"
#include "workloads/customer.h"
#include "workloads/query_stream.h"
#include "workloads/tpcds_like.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

QueryStreamSpec Spec(const std::string& kind, uint64_t seed) {
  QueryStreamSpec spec;
  spec.kind = kind;
  spec.seed = seed;
  return spec;
}

void ValidateQueries(BenchmarkDatabase* bdb) {
  std::set<std::string> names;
  for (const QuerySpec& q : bdb->queries()) {
    EXPECT_TRUE(names.insert(q.name).second) << "duplicate " << q.name;
    ASSERT_FALSE(q.tables.empty()) << q.name;
    // Tables are distinct.
    std::set<int> tset(q.tables.begin(), q.tables.end());
    EXPECT_EQ(tset.size(), q.tables.size()) << q.name;
    // A query over n tables has exactly n-1 join conditions (join trees).
    EXPECT_EQ(q.joins.size(), q.tables.size() - 1) << q.name;
    // Every join endpoint is a table in the query, with valid columns.
    for (const JoinCond& j : q.joins) {
      EXPECT_TRUE(tset.count(j.left.table_id)) << q.name;
      EXPECT_TRUE(tset.count(j.right.table_id)) << q.name;
      EXPECT_LT(static_cast<size_t>(j.left.column_id),
                bdb->db()->table(j.left.table_id).num_columns());
    }
    // Predicates reference query tables.
    for (const Predicate& p : q.predicates) {
      EXPECT_TRUE(tset.count(p.table_id)) << q.name;
    }
    // Every query must be optimizable and executable under C0.
    const auto plan =
        bdb->what_if()->Optimize(q, bdb->initial_config());
    ASSERT_NE(plan, nullptr) << q.name;
    EXPECT_GT(plan->est_total_cost, 0) << q.name;
  }
}

TEST(TpchLikeTest, SchemaAndQueriesWellFormed) {
  auto bdb = BuildTpchLike("w_tpch", 2, 0.9, 71);
  EXPECT_EQ(bdb->db()->num_tables(), 8);
  EXPECT_GE(bdb->queries().size(), 24u);
  EXPECT_GT(bdb->db()->table(bdb->db()->FindTable("lineitem")).num_rows(),
            bdb->db()->table(bdb->db()->FindTable("orders")).num_rows());
  ValidateQueries(bdb.get());
}

TEST(TpchLikeTest, ScaleParameterScalesRows) {
  auto small = BuildTpchLike("w_s", 1, 0.9, 72);
  auto big = BuildTpchLike("w_b", 4, 0.9, 72);
  const int li_s = small->db()->FindTable("lineitem");
  const int li_b = big->db()->FindTable("lineitem");
  EXPECT_EQ(big->db()->table(li_b).num_rows(),
            4 * small->db()->table(li_s).num_rows());
}

TEST(TpcdsLikeTest, SchemaQueriesAndColumnstoreConfig) {
  auto plain = BuildTpcdsLike("w_ds", 2, 0.8, false, 73);
  EXPECT_EQ(plain->db()->num_tables(), 11);
  EXPECT_TRUE(plain->initial_config().empty());
  ValidateQueries(plain.get());

  auto cs = BuildTpcdsLike("w_ds_cs", 2, 0.8, true, 73);
  EXPECT_EQ(cs->initial_config().size(), 3u);  // Three fact tables.
  for (const IndexDef& def : cs->initial_config().indexes()) {
    EXPECT_TRUE(def.is_columnstore);
  }
  ValidateQueries(cs.get());
}

TEST(CustomerTest, ProfilesProduceValidDatabases) {
  for (int c : {1, 4, 6, 9, 11}) {
    CustomerProfile prof = CustomerProfileFor(c);
    prof.max_rows = std::min<size_t>(prof.max_rows, 5000);
    auto bdb = BuildCustomer("w_c" + std::to_string(c), prof, 74 + c);
    EXPECT_EQ(bdb->db()->num_tables(), prof.num_tables);
    EXPECT_GE(static_cast<int>(bdb->queries().size()), prof.num_queries);
    ValidateQueries(bdb.get());
  }
}

TEST(CustomerTest, Customer6IsDeepest) {
  const CustomerProfile p6 = CustomerProfileFor(6);
  for (int c = 1; c <= 11; ++c) {
    if (c == 6) continue;
    EXPECT_GE(p6.max_joins, CustomerProfileFor(c).max_joins);
  }
}

TEST(SuiteTest, SmallSuiteBuildsAndCollects) {
  auto suite = BuildSmallSuite(75);
  ASSERT_EQ(suite.size(), 3u);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 4;
  CollectSuite(&suite, copts, &repo);
  EXPECT_GT(repo.num_plans(), 100u);
  const auto stats = repo.Stats();
  EXPECT_EQ(stats.size(), 3u);

  // Every record has consistent features and positive costs.
  for (size_t i = 0; i < repo.num_plans(); ++i) {
    const ExecutedPlan& p = repo.plan(i);
    EXPECT_GT(p.exec_cost, 0);
    EXPECT_GT(p.est_cost, 0);
    EXPECT_EQ(p.features.values.size(), AllChannels().size());
    EXPECT_NE(p.plan, nullptr);
    EXPECT_TRUE(p.plan->root->stats.executed);
  }
}

TEST(SuiteTest, BenchmarkSuiteHasFifteenDatabases) {
  auto suite = BuildBenchmarkSuite(76, /*scale_divisor=*/4);
  EXPECT_EQ(suite.size(), 15u);
  std::set<std::string> names;
  for (const auto& bdb : suite) {
    EXPECT_TRUE(names.insert(bdb->name()).second);
    EXPECT_FALSE(bdb->queries().empty());
  }
}

TEST(CollectionTest, SameQueryDifferentConfigsShareGroup) {
  auto bdb = BuildTpchLike("w_cg", 1, 0.9, 77);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 5;
  CollectExecutionData(bdb.get(), 0, copts, &repo);
  std::map<int, std::set<std::string>> configs_per_group;
  for (size_t i = 0; i < repo.num_plans(); ++i) {
    configs_per_group[repo.QueryGroupOf(static_cast<int>(i))].insert(
        repo.plan(static_cast<int>(i)).config_fp);
  }
  int multi = 0;
  for (const auto& [g, configs] : configs_per_group) {
    if (configs.size() >= 2) ++multi;
  }
  EXPECT_GT(multi, 10);
}

TEST(RegistryTest, PreparedStreamsDispatchEveryFamily) {
  auto take = [](const QueryStreamSpec& spec)
      -> std::unique_ptr<BenchmarkDatabase> {
    auto gen = MakePreparedQueryStream(spec);
    EXPECT_TRUE(gen.ok()) << gen.status().ToString();
    return gen.ok() ? (*gen)->TakeDatabase() : nullptr;
  };
  auto tpch = take(Spec("tpch", 81));
  ASSERT_NE(tpch, nullptr);
  EXPECT_GE(tpch->db()->FindTable("lineitem"), 0);

  auto tpcds = take(Spec("tpcds", 82));
  ASSERT_NE(tpcds, nullptr);
  EXPECT_GE(tpcds->db()->FindTable("store_sales"), 0);

  auto customer = take(Spec("customer3", 83));
  ASSERT_NE(customer, nullptr);
  EXPECT_FALSE(customer->queries().empty());

  // tpch_sf honors the fractional scale factor, not `scale`.
  QueryStreamSpec sf_spec = Spec("tpch_sf", 84);
  sf_spec.scale = 99;
  sf_spec.sf = 0.001;
  auto sf = take(sf_spec);
  ASSERT_NE(sf, nullptr);
  EXPECT_EQ(sf->db()->table(sf->db()->FindTable("lineitem")).num_rows(),
            6000u);

  EXPECT_EQ(
      MakePreparedQueryStream(Spec("no_such_kind", 85)).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(RegistryTest, TpchSfRejectsScaleFactorsOutsideTheBuildRange) {
  for (double sf : {1000.0, std::nan(""), HUGE_VAL, 0.0}) {
    QueryStreamSpec spec = Spec("tpch_sf", 86);
    spec.sf = sf;
    EXPECT_EQ(MakePreparedQueryStream(spec).status().code(),
              StatusCode::kInvalidArgument)
        << sf;
  }
}

TEST(RegistryTest, CustomerKindMustBeCustomerThenProfileDigits) {
  for (const char* kind : {"customer1", "customer11"}) {
    EXPECT_TRUE(MakePreparedQueryStream(Spec(kind, 87)).ok()) << kind;
  }
  for (const char* kind : {"customer", "customer3abc", "customer0",
                           "customer12", "customer-3", "customer+3",
                           "customer 3", "customer99999999999"}) {
    EXPECT_EQ(MakePreparedQueryStream(Spec(kind, 87)).status().code(),
              StatusCode::kInvalidArgument)
        << kind;
  }
}

TEST(RegistryTest, KnowsAndKindsCoverEveryBuiltinFamily) {
  for (const char* kind : {"tpch", "tpcds", "tpch_sf", "synthetic",
                           "customer7"}) {
    EXPECT_TRUE(MakePreparedQueryStream(Spec(kind, 88)).ok()) << kind;
  }
  EXPECT_EQ(QueryStreamKinds(),
            (std::vector<std::string>{"customer*", "synthetic", "tpcds",
                                      "tpch", "tpch_sf"}));

  EXPECT_EQ(MakePreparedQueryStream(Spec("no_such_kind", 42)).status().code(),
            StatusCode::kInvalidArgument);
  for (const char* kind : {"", "TPCH", "tpch_sf2", "synthetic "}) {
    EXPECT_EQ(MakePreparedQueryStream(Spec(kind, 42)).status().code(),
              StatusCode::kInvalidArgument)
        << kind;
  }
}

TEST(QueryStreamTest, StreamsAreDeterministicAndOpenEnded) {
  const QueryStreamSpec spec = Spec("synthetic", 93);
  auto a = MakePreparedQueryStream(spec);
  auto b = MakePreparedQueryStream(spec);
  ASSERT_TRUE(a.ok() && b.ok());
  std::set<std::string> seen;
  for (int round = 0; round < 3; ++round) {
    const auto batch_a = (*a)->NextQueryBatch(7).value();
    const auto batch_b = (*b)->NextQueryBatch(7).value();
    ASSERT_EQ(batch_a.size(), 7u);
    ASSERT_EQ(batch_b.size(), batch_a.size());
    for (size_t i = 0; i < batch_a.size(); ++i) {
      EXPECT_EQ(batch_a[i].name, batch_b[i].name);
      EXPECT_EQ(batch_a[i].tables, batch_b[i].tables);
      EXPECT_EQ(batch_a[i].predicates.size(), batch_b[i].predicates.size());
      // Names are unique across the stream's lifetime.
      EXPECT_TRUE(seen.insert(batch_a[i].name).second) << batch_a[i].name;
      // Every instance is optimizable against the built database.
      EXPECT_NE((*a)->database()->what_if()->Optimize(
                    batch_a[i], (*a)->database()->initial_config()),
                nullptr)
          << batch_a[i].name;
    }
  }
}

TEST(QueryStreamTest, ReplayFamiliesCycleWithFreshInstanceNames) {
  auto gen = MakePreparedQueryStream(Spec("tpch", 94));
  ASSERT_TRUE(gen.ok());
  const size_t templates = (*gen)->database()->queries().size();
  // Draw well past one full cycle: instance names must stay unique even
  // though the underlying templates repeat.
  const auto batch =
      (*gen)->NextQueryBatch(static_cast<int>(3 * templates)).value();
  ASSERT_EQ(batch.size(), 3 * templates);
  std::set<std::string> names;
  for (const QuerySpec& q : batch) {
    EXPECT_TRUE(names.insert(q.name).second) << q.name;
  }
  EXPECT_EQ((*gen)->NextQueryBatch(0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryStreamTest, TakeDatabaseExhaustsTheGenerator) {
  auto gen = MakePreparedQueryStream(Spec("customer2", 95));
  ASSERT_TRUE(gen.ok());
  auto db = (*gen)->TakeDatabase();
  ASSERT_NE(db, nullptr);
  EXPECT_EQ((*gen)->database(), nullptr);
  EXPECT_EQ((*gen)->NextQueryBatch(1).status().code(),
            StatusCode::kFailedPrecondition);
}

/// FNV-1a over 64-bit words and length-prefixed strings.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void operator()(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  void operator()(const std::string& s) {
    (*this)(s.size());
    for (char c : s) (*this)(static_cast<unsigned char>(c));
  }
  void operator()(const ColumnRef& c) {
    (*this)(static_cast<uint64_t>(c.table_id));
    (*this)(static_cast<uint64_t>(c.column_id));
  }
  void operator()(const Value& v) {
    (*this)(static_cast<uint64_t>(v.type()));
    switch (v.type()) {
      case DataType::kInt64:
        (*this)(static_cast<uint64_t>(v.as_int()));
        break;
      case DataType::kDouble:
        (*this)(std::bit_cast<uint64_t>(v.as_double()));
        break;
      case DataType::kString:
        (*this)(v.as_string());
        break;
    }
  }
};

/// FNV-1a over every table's name, row count and ContentFingerprint(),
/// every template query's name, and every index of the initial
/// configuration C0, in catalog order.
uint64_t WorkloadHash(BenchmarkDatabase* bdb) {
  Fnv mix;
  const Database& db = *bdb->db();
  for (int t = 0; t < db.num_tables(); ++t) {
    const Table& table = db.table(t);
    mix(table.name());
    mix(table.num_rows());
    mix(table.ContentFingerprint());
  }
  for (const QuerySpec& q : bdb->queries()) mix(q.name);
  for (const IndexDef& def : bdb->initial_config().indexes()) {
    mix(def.CanonicalName());
  }
  return mix.h;
}

/// FNV-1a over a stream's first three NextQueryBatch(7) draws: each
/// query's name, tables, predicates (constants included), group-by,
/// aggregates, order-by and TOP.
uint64_t StreamHash(IQueryStreamGenerator* gen) {
  Fnv mix;
  for (int round = 0; round < 3; ++round) {
    auto batch = gen->NextQueryBatch(7);
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok()) return 0;
    for (const QuerySpec& q : *batch) {
      mix(q.name);
      mix(q.tables.size());
      for (int t : q.tables) mix(static_cast<uint64_t>(t));
      mix(q.predicates.size());
      for (const Predicate& p : q.predicates) {
        mix(ColumnRef{p.table_id, p.column_id});
        mix(static_cast<uint64_t>(p.op));
        mix(p.lo);
        mix(p.hi);
      }
      mix(q.group_by.size());
      for (const ColumnRef& c : q.group_by) mix(c);
      mix(q.aggregates.size());
      for (const AggItem& a : q.aggregates) {
        mix(static_cast<uint64_t>(a.func));
        mix(a.col);
      }
      mix(q.order_by.size());
      for (const SortKey& k : q.order_by) {
        mix(k.col);
        mix(static_cast<uint64_t>(k.ascending));
      }
      mix(static_cast<uint64_t>(q.top_n));
    }
  }
  return mix.h;
}

// Pins the generated data and template queries of every built-in family at
// the default spec (scale 1, seed 42, sf 0.01), so a change to a generator
// or to how specs are built moves this hash first.
TEST(GoldenWorkloadTest, TableFingerprintsAndQueryNames) {
  const std::vector<std::pair<std::string, uint64_t>> want = {
      {"tpch", 0x1513e2c9a5db4c49ull},
      {"tpcds", 0x7853e13d8b1af5e1ull},
      {"customer1", 0x013b1de065f92174ull},
      {"customer2", 0x8bc0ab4c9928dadeull},
      {"customer3", 0x6306a8987494c78full},
      {"customer4", 0xcc3a87ef95307584ull},
      {"customer5", 0x1d5fbe13081d520eull},
      {"customer6", 0x322cdbe02b070d19ull},
      {"customer7", 0xd058d6aed4f540e5ull},
      {"customer8", 0x6765d4d1cd33c5f0ull},
      {"customer9", 0x1fc35df8cfdb8aa4ull},
      {"customer10", 0xd2b373fd4db30677ull},
      {"customer11", 0x66d77407559262eaull},
      {"tpch_sf", 0x2b56a164240a8f84ull},
      {"synthetic", 0x40aec15e8ec85ebeull},
  };
  for (const auto& [kind, hash] : want) {
    auto gen = MakePreparedQueryStream(Spec(kind, 42));
    ASSERT_TRUE(gen.ok()) << kind << ": " << gen.status().ToString();
    EXPECT_EQ(WorkloadHash((*gen)->database()), hash)
        << kind << ": got 0x" << std::hex << WorkloadHash((*gen)->database());
  }
  // tpcds with a columnstore C0 on its three fact tables.
  auto cs = BuildTpcdsLike("tpcds_cs", 1, 0.8, /*with_columnstore=*/true, 42);
  EXPECT_EQ(WorkloadHash(cs.get()), 0xd3cf0a5e7c196339ull)
      << "tpcds_columnstore: got 0x" << std::hex << WorkloadHash(cs.get());
}

// Pins BuildTpchLike at the two other skews the paper benches pass (the
// default spec above covers 0.9): zipf 0.0 takes the uniform branch of
// every skewed fill, zipf 0.5 a second Zipf shape.
TEST(GoldenWorkloadTest, TpchLikeAtOtherSkews) {
  const std::vector<std::pair<double, uint64_t>> want = {
      {0.0, 0x86018cb8444b8534ull},
      {0.5, 0xf75da29696684756ull},
  };
  for (const auto& [zipf_s, hash] : want) {
    auto bdb = BuildTpchLike("tpch", 1, zipf_s, 42);
    EXPECT_EQ(WorkloadHash(bdb.get()), hash)
        << "zipf " << zipf_s << ": got 0x" << std::hex
        << WorkloadHash(bdb.get());
  }
}

// Pins the query stream of every built-in family at the default spec:
// replay order and instance names for the closed families, the freshly
// instantiated queries (constants included) for synthetic.
TEST(GoldenWorkloadTest, StreamBatches) {
  const std::vector<std::pair<std::string, uint64_t>> want = {
      {"tpch", 0xd22d23f048e7b2c9ull},
      {"tpcds", 0xc2219f63c87dec54ull},
      {"customer1", 0x282f5331a0ecb0afull},
      {"customer2", 0xb129923d7eaedc6eull},
      {"customer3", 0x0fcf3194dfcb633full},
      {"customer4", 0xad3c742c9fec6ec8ull},
      {"customer5", 0x6734c61efd7c621aull},
      {"customer6", 0x309215a82b7f9010ull},
      {"customer7", 0x534cd77669f521d0ull},
      {"customer8", 0x153db2bcb4b47b69ull},
      {"customer9", 0xef87afba548b90b1ull},
      {"customer10", 0x5c571b5d6c0de6cfull},
      {"customer11", 0xcd2e935835608e3aull},
      {"tpch_sf", 0xac673f1d66644a04ull},
      {"synthetic", 0xea5c813d0116056aull},
  };
  for (const auto& [kind, hash] : want) {
    auto gen = MakePreparedQueryStream(Spec(kind, 42));
    ASSERT_TRUE(gen.ok()) << kind << ": " << gen.status().ToString();
    const uint64_t got = StreamHash(gen->get());
    EXPECT_EQ(got, hash) << kind << ": got 0x" << std::hex << got;
  }
}

#if !defined(AIMAI_OBS_DISABLED)

// Database generation is the set-up stage of every loop; each family's
// build records one `workloads.generate.<family>` span, so set-up has a
// layer split under AIMAI_METRICS=1.
TEST(GenerateSpanTest, EveryFamilyRecordsItsSpan) {
  const std::vector<std::pair<std::string, std::string>> kinds = {
      {"tpch", "tpch"},         {"tpcds", "tpcds"},
      {"tpch_sf", "tpch_sf"},   {"customer3", "customer"},
      {"synthetic", "synthetic"},
  };
  for (const auto& [kind, family] : kinds) {
    obs::Histogram* span = obs::Registry().GetHistogram(
        "workloads.generate." + family + ".ns");
    const int64_t before = span->count();
    auto gen = MakePreparedQueryStream(Spec(kind, 42));
    ASSERT_TRUE(gen.ok()) << kind << ": " << gen.status().ToString();
    EXPECT_EQ(span->count(), before + 1) << kind;
  }
  // A rejected spec builds nothing and records nothing.
  obs::Histogram* sf = obs::Registry().GetHistogram(
      "workloads.generate.tpch_sf.ns");
  const int64_t before = sf->count();
  QueryStreamSpec bad = Spec("tpch_sf", 42);
  bad.sf = 0;
  EXPECT_FALSE(MakePreparedQueryStream(bad).ok());
  EXPECT_EQ(sf->count(), before);
}

#endif  // !AIMAI_OBS_DISABLED

/// The rejection-inversion closed form exactly as the per-draw sampler
/// every generator used before ZipfSampler wrote it: the (n, s) constants
/// and one iteration at a given u.
struct ClosedFormZipf {
  struct Outcome {
    int64_t k;
    bool accept;
  };

  ClosedFormZipf(int64_t n, double s) : n(n), s(s) {
    h_x1 = HIntegral(1.5) - 1.0;
    h_n = HIntegral(static_cast<double>(n) + 0.5);
    s_shift = 2.0 - HIntegralInv(HIntegral(2.5) - H(2.0));
  }

  double HIntegral(double x) const {
    const double log_x = std::log(x);
    if (std::abs(1.0 - s) < 1e-12) return log_x;
    return (std::exp((1.0 - s) * log_x) - 1.0) / (1.0 - s);
  }
  double HIntegralInv(double x) const {
    if (std::abs(1.0 - s) < 1e-12) return std::exp(x);
    double t = x * (1.0 - s);
    if (t < -1.0) t = -1.0;
    return std::exp(std::log1p(t) / (1.0 - s));
  }
  double H(double x) const { return std::exp(-s * std::log(x)); }

  /// One draw: iterations until one accepts (s <= 0 is uniform).
  int64_t Draw(Rng* rng) const {
    if (s <= 0.0) return rng->UniformInt(1, n);
    while (true) {
      const Outcome it = Iterate(h_n + rng->Uniform() * (h_x1 - h_n));
      if (it.accept) return it.k;
    }
  }

  Outcome Iterate(double u) const {
    const double x = HIntegralInv(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    if (k > static_cast<double>(n)) k = static_cast<double>(n);
    return {static_cast<int64_t>(k),
            k - x <= s_shift || u >= HIntegral(k + 0.5) - H(k)};
  }

  int64_t n;
  double s;
  double h_x1, h_n, s_shift;
};

/// The per-draw Zipf sampler every generator used before ZipfSampler: it
/// recomputes the (n, s) constants and the reject threshold on every draw.
/// ZipfSampler must reproduce it value for value and draw for draw.
int64_t ReferenceZipf(Rng* rng, int64_t n, double s) {
  return ClosedFormZipf(n, s).Draw(rng);
}

/// A sampler as a fill builds it: domain, skew, and the fill's row count
/// (which sizes the fast inverse's grid).
struct ZipfCase {
  int64_t n;
  double s;
  size_t draws;
};

std::string Describe(const ZipfCase& c) {
  return StrFormat("n %lld s %.17g draws %zu", static_cast<long long>(c.n),
                   c.s, c.draws);
}

/// Draws `count` values from a sampler built for `c` and from the closed
/// form on equal seeds — through the per-draw reference, or with its
/// constants computed once (the same values) when `per_draw` is false —
/// and expects the same values and the same engine state after the last
/// draw.
void ExpectMatchesReference(const ZipfCase& c, uint64_t seed, size_t count,
                            bool per_draw = false) {
  Rng got_rng(seed), want_rng(seed);
  const ZipfSampler zipf(c.n, c.s, c.draws);
  const ClosedFormZipf closed(c.n, c.s);
  size_t mismatches = 0;
  for (size_t i = 0; i < count; ++i) {
    const int64_t got = zipf.Draw(&got_rng);
    ASSERT_GE(got, 1) << Describe(c);
    ASSERT_LE(got, c.n) << Describe(c);
    const int64_t want = per_draw ? ReferenceZipf(&want_rng, c.n, c.s)
                                  : closed.Draw(&want_rng);
    if (got != want) ++mismatches;
  }
  EXPECT_EQ(mismatches, 0u) << Describe(c);
  EXPECT_EQ(got_rng.engine()(), want_rng.engine()()) << Describe(c);
}

constexpr size_t kOracleDraws = 1'000'000;

// Tiny and mid-size domains (4096 / 4097), the tpch_sf key domains
// (75k orders at SF 0.05, 6M lineitems at SF 1) and the skews the
// generators pass, including the s == 1 log form and s <= 0 (uniform),
// each at a fill size with the full grid and one below kMinGridDraws.
TEST(ZipfSamplerOracleTest, MatchesPerDrawReferenceAndLeavesSameState) {
  const std::vector<int64_t> ns = {1, 2, 7, 4096, 4097, 75000, 6'000'000};
  const std::vector<double> ss = {0.0, 0.6, 0.9, 1.0, 1.1, 1.5};
  uint64_t seed = 1;
  for (int64_t n : ns) {
    for (double s : ss) {
      for (size_t draws : {size_t{100}, size_t{300'000}}) {
        ExpectMatchesReference({n, s, draws}, seed++, 4000,
                               /*per_draw=*/true);
      }
    }
  }
}

// The (domain, skew, rows) of the tpch_sf fills at SF 0.05 and of the
// SF 1 key columns (l_orderkey's 1.5M orders; the 6M domain is the SF 1
// lineitem count), a million draws each.
TEST(ZipfSamplerOracleTest, TpchSfFillsOverAMillionDraws) {
  const std::vector<ZipfCase> cases = {
      {25, 0.9, 500},           {25, 0.9, 7500},
      {10000, 0.9, 40000},      {500, 0.9, 40000},
      {7500, 0.9, 75000},       {75000, 0.9, 300000},
      {10000, 0.9, 300000},     {500, 0.9, 300000},
      {5, 0.8, 75000},          {7, 0.8, 300000},
      {3, 0.8, 300000},         {5, 0.8, 7500},
      {25, 0.8, 10000},         {1'500'000, 0.9, 6'000'000},
      {6'000'000, 0.9, 6'000'000}};
  uint64_t seed = 1000;
  for (const ZipfCase& c : cases) {
    ExpectMatchesReference(c, seed++, kOracleDraws);
  }
}

// tpch_like at zipf 0.9 and 0.5 (scale 1, plus the 0.6 skew its bucket
// fills fall back to at zipf 0), tpcds_like at 0.8 (scale 1), and each
// skew of the customer profiles (0.3 to 0.9 and 1.1) at a domain and row
// count from their ranges.
TEST(ZipfSamplerOracleTest, OtherFamiliesOverAMillionDraws) {
  const std::vector<ZipfCase> cases = {
      {750, 0.9, 3000},   {150, 0.9, 750},    {7, 0.9, 3000},
      {750, 0.5, 3000},   {5, 0.5, 750},      {3, 0.6, 3000},
      {25, 0.6, 200},     {1200, 0.8, 3000},  {150, 0.8, 3000},
      {50, 0.8, 120},     {10000, 0.3, 5000}, {200, 0.4, 15000},
      {50000, 0.5, 40000}, {37, 0.6, 4000},   {4000, 0.7, 25000},
      {120, 0.8, 50000},  {20000, 0.9, 30000}, {8000, 1.1, 20000}};
  uint64_t seed = 2000;
  for (const ZipfCase& c : cases) {
    ExpectMatchesReference(c, seed++, kOracleDraws);
  }
}

// Domains of one and two values, skews near and at 1 (1 +- 1e-11 is just
// outside the log form's 1e-12 band, 1 - 1e-13 inside it) and heavy
// skews past 1.
TEST(ZipfSamplerOracleTest, EdgeDomainsAndSkewsOverAMillionDraws) {
  const std::vector<ZipfCase> cases = {
      {1, 0.9, 300000},          {2, 0.9, 300000},
      {2, 0.3, 300000},          {10000, 0.999, 300000},
      {10000, 1 - 1e-11, 300000}, {10000, 1 + 1e-11, 300000},
      {10000, 1 - 1e-13, 300000}, {10000, 1.1, 300000},
      {10000, 1.5, 300000},      {10000, 3.0, 300000}};
  uint64_t seed = 3000;
  for (const ZipfCase& c : cases) {
    ExpectMatchesReference(c, seed++, kOracleDraws);
  }
}

/// The double `steps` representable values above (below, if negative) `u`.
double StepUlps(double u, int64_t steps) {
  // Map to integers that order like the doubles, step, and map back.
  const int64_t bits = std::bit_cast<int64_t>(u);
  const int64_t ordered = bits < 0 ? INT64_MIN - bits : bits;
  const int64_t moved = ordered + steps;
  return std::bit_cast<double>(moved < 0 ? INT64_MIN - moved : moved);
}

// Walks u across every decision boundary of a few samplers — the bin
// edges k +- 0.5 and the shortcut edge k - s_shift, at the u where the
// closed form puts them — in single representable steps up to 64 away
// and then in doubling steps out past the guard band, and checks every
// iteration's candidate and accept outcome against the closed form. The
// fast inverse must decide some of these iterations (else the sweep
// tests only the fallback), and with the guard removed it gets
// iterations next to the boundaries wrong.
TEST(ZipfSamplerOracleTest, FastInverseMatchesClosedFormAcrossBoundaries) {
  const std::vector<std::pair<ZipfCase, int64_t>> cases = {
      // Sampler, and the stride over k for the large domains.
      {{3, 0.8, 300000}, 1},     {{7, 0.8, 300000}, 1},
      {{25, 0.9, 7500}, 1},      {{500, 0.9, 300000}, 1},
      {{200, 0.3, 15000}, 1},    {{2000, 0.999, 50000}, 7},
      {{75000, 0.9, 300000}, 211}};
  std::vector<int64_t> offsets;
  for (int64_t d = -64; d <= 64; ++d) offsets.push_back(d);
  for (int64_t d = 128; d <= (int64_t{1} << 40); d *= 2) {
    offsets.push_back(d);
    offsets.push_back(-d);
  }
  for (const auto& [c, stride] : cases) {
    const ZipfSampler zipf(c.n, c.s, c.draws);
    const ClosedFormZipf closed(c.n, c.s);
    size_t checked = 0, fast = 0, mismatches = 0;
    for (int64_t k = 1; k <= c.n; k += stride) {
      const double kd = static_cast<double>(k);
      for (double edge : {kd - 0.5, kd + 0.5, kd - closed.s_shift}) {
        if (edge <= 0.5) continue;  // Below the smallest x.
        const double u_edge = closed.HIntegral(edge);
        for (int64_t d : offsets) {
          const double u = StepUlps(u_edge, d);
          if (!(u >= closed.h_x1 && u <= closed.h_n)) continue;
          const ZipfSampler::Iteration got = zipf.Iterate(u);
          const ClosedFormZipf::Outcome want = closed.Iterate(u);
          ++checked;
          fast += got.fast;
          if (got.k != want.k || got.accept != want.accept) {
            if (++mismatches <= 5) {
              ADD_FAILURE() << Describe(c) << " u " << u << " (edge "
                            << edge << ", " << d << " steps): got k "
                            << got.k << " accept " << got.accept
                            << ", closed form k " << want.k << " accept "
                            << want.accept;
            }
          }
        }
      }
    }
    EXPECT_EQ(mismatches, 0u) << Describe(c) << " of " << checked;
    EXPECT_GT(fast, checked / 8) << Describe(c) << " of " << checked;
  }
}

// The fast inverse must decide almost every iteration of the tpch_sf fills
// (SF 0.05, and SF 1's key columns), so a dead fast path cannot hide
// behind the fallback; a fill below kMinGridDraws and skews s >= 1 have no
// grid and decide none.
TEST(ZipfSamplerOracleTest, FastInverseDecidesAlmostEveryTpchSfIteration) {
  const std::vector<ZipfCase> decided = {
      {25, 0.9, 7500},        {10000, 0.9, 40000},  {500, 0.9, 40000},
      {7500, 0.9, 75000},     {75000, 0.9, 300000}, {10000, 0.9, 300000},
      {500, 0.9, 300000},     {5, 0.8, 75000},      {7, 0.8, 300000},
      {3, 0.8, 300000},       {5, 0.8, 7500},       {25, 0.8, 10000},
      {1'500'000, 0.9, 6'000'000}};
  const std::vector<ZipfCase> closed_only = {
      {25, 0.9, 500}, {10000, 1.0, 300000}, {10000, 1.1, 300000}};
  auto fast_share = [](const ZipfCase& c) {
    const ZipfSampler zipf(c.n, c.s, c.draws);
    const ClosedFormZipf closed(c.n, c.s);
    Rng rng(99);
    constexpr int kIterations = 100000;
    int fast = 0;
    for (int i = 0; i < kIterations; ++i) {
      const double u = closed.h_n + rng.Uniform() * (closed.h_x1 - closed.h_n);
      fast += zipf.Iterate(u).fast;
    }
    return static_cast<double>(fast) / kIterations;
  };
  for (const ZipfCase& c : decided) {
    EXPECT_GE(fast_share(c), 0.99) << Describe(c);
  }
  for (const ZipfCase& c : closed_only) {
    EXPECT_EQ(fast_share(c), 0.0) << Describe(c);
  }
}

/// FillBucketCorrelatedDict as it was before the counting sort and the
/// typed comparator: Zipf codes sorted with std::sort, then assigned in
/// the order of an indirect std::sort of row ids through NumericAt.
/// Returns the codes; leaves `rng` where the fill leaves its generator.
std::vector<int32_t> ReferenceBucketCorrelatedCodes(Rng* rng,
                                                    const Column& src,
                                                    size_t n, int64_t vocab,
                                                    double zipf_s,
                                                    double flip_probability) {
  std::vector<int32_t> codes(n);
  for (size_t i = 0; i < n; ++i) {
    codes[i] = static_cast<int32_t>(
        ReferenceZipf(rng, vocab, zipf_s > 0 ? zipf_s : 0.6) - 1);
  }
  std::sort(codes.begin(), codes.end());
  std::vector<uint32_t> rank(n);
  for (size_t i = 0; i < n; ++i) rank[i] = static_cast<uint32_t>(i);
  std::sort(rank.begin(), rank.end(), [&src](uint32_t a, uint32_t b) {
    return src.NumericAt(a) < src.NumericAt(b);
  });
  std::vector<int32_t> assigned(n);
  for (size_t pos = 0; pos < n; ++pos) assigned[rank[pos]] = codes[pos];
  for (size_t i = 0; i < n; ++i) {
    if (flip_probability > 0 && rng->Bernoulli(flip_probability)) {
      assigned[i] = static_cast<int32_t>(rng->UniformInt(0, vocab - 1));
    }
  }
  return assigned;
}

// Tie-heavy sources of every type decide which tied rows get which code
// through std::sort's tie order; the fill must keep that order exactly.
// The int64 source also holds values past 2^53, where distinct integers
// tie as doubles, so the comparator must compare the numeric (double)
// view, not the raw integers.
TEST(BucketCorrelatedDictOracleTest, MatchesIndirectSortReference) {
  constexpr size_t kRows = 30000;
  Rng fill(17);
  Column ints("ints", DataType::kInt64);
  Column doubles("doubles", DataType::kDouble);
  Column strings("strings", DataType::kString);
  Column huge("huge", DataType::kInt64);
  strings.SetDictionary({"a", "b", "c", "d", "e"});
  for (size_t i = 0; i < kRows; ++i) {
    ints.AppendInt(fill.UniformInt(0, 40));
    doubles.AppendDouble(0.5 * static_cast<double>(fill.UniformInt(-3, 9)) +
                         (fill.Bernoulli(0.1) ? -0.0 : 0.0));
    strings.AppendCode(static_cast<int32_t>(fill.UniformInt(0, 4)));
    huge.AppendInt((int64_t{1} << 53) + fill.UniformInt(0, 7));
  }
  struct Case {
    const Column* src;
    size_t n;
    int64_t vocab;
    double zipf_s;
    double flip;
  };
  const std::vector<Case> cases = {
      {&ints, kRows, 7, 0.9, 0.0},      {&ints, kRows - 123, 50, 0.0, 0.05},
      {&doubles, kRows, 3, 1.0, 0.02},  {&doubles, 1000, 4200, 1.1, 0.0},
      {&strings, kRows, 25, 0.6, 0.0},  {&strings, 17, 2, 1.5, 0.3},
      {&huge, kRows, 11, 0.9, 0.01},    {&ints, 1, 1, 0.9, 0.0},
  };
  uint64_t seed = 100;
  for (const Case& c : cases) {
    Rng want_rng(seed);
    const std::vector<int32_t> want = ReferenceBucketCorrelatedCodes(
        &want_rng, *c.src, c.n, c.vocab, c.zipf_s, c.flip);
    DataGenerator gen{Rng(seed)};
    ++seed;
    Column col("out", DataType::kString);
    gen.FillBucketCorrelatedDict(&col, *c.src, c.n, c.vocab, c.zipf_s,
                                 c.flip, "p");
    ASSERT_EQ(col.size(), c.n);
    const std::vector<int32_t> got(col.codes_data(),
                                   col.codes_data() + col.size());
    EXPECT_EQ(got, want) << c.src->name() << " n " << c.n << " vocab "
                         << c.vocab;
    EXPECT_EQ(gen.rng()->engine()(), want_rng.engine()())
        << c.src->name() << " n " << c.n;
  }
}

}  // namespace
}  // namespace aimai
