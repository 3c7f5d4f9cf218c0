#include "workloads/query_stream.h"

#include <algorithm>
#include <cstdlib>
#include <mutex>

#include "common/check.h"
#include "common/thread_pool.h"
#include "workloads/customer.h"
#include "workloads/query_helpers.h"
#include "workloads/tpcds_like.h"
#include "workloads/tpch_like.h"
#include "workloads/tpch_sf.h"

namespace aimai {

namespace {

const char* SqlTypeName(DataType t) {
  switch (t) {
    case DataType::kInt64:
      return "BIGINT";
    case DataType::kDouble:
      return "DOUBLE PRECISION";
    case DataType::kString:
      return "VARCHAR";
  }
  return "BIGINT";
}

/// Derives the stream Rng seed from the spec seed. The salt decouples the
/// query stream from the data-generation draws (both start from
/// spec.seed), so adding data columns never perturbs the stream.
constexpr uint64_t kStreamSeedSalt = 0x9e3779b97f4a7c15ULL;

/// Shared base: database lifecycle (Prepare/GetDdl/TakeDatabase) and the
/// per-stream Rng. Subclasses implement the stream draw itself.
class StreamGeneratorBase : public IQueryStreamGenerator {
 public:
  using DbBuilder =
      std::function<std::unique_ptr<BenchmarkDatabase>(const QueryStreamSpec&)>;

  StreamGeneratorBase(QueryStreamSpec spec, DbBuilder builder)
      : spec_(std::move(spec)),
        builder_(std::move(builder)),
        stream_rng_(spec_.seed ^ kStreamSeedSalt) {}

  const std::string& kind() const override { return spec_.kind; }
  const QueryStreamSpec& spec() const override { return spec_; }

  std::string GetDdl() override {
    const Status st = PrepareInitialData();
    if (!st.ok()) return "-- " + st.ToString() + "\n";
    return SchemaDdl(*db_->db());
  }

  Status PrepareInitialData() override {
    if (db_ != nullptr) return Status::Ok();
    if (taken_) {
      return Status::FailedPrecondition(
          "query stream database already taken");
    }
    std::unique_ptr<BenchmarkDatabase> built = builder_(spec_);
    if (built == nullptr) {
      return Status::Internal("workload builder returned no database: " +
                              spec_.kind);
    }
    db_ = std::move(built);
    return Status::Ok();
  }

  BenchmarkDatabase* database() override { return db_.get(); }

  std::unique_ptr<BenchmarkDatabase> TakeDatabase() override {
    const Status st = PrepareInitialData();
    if (!st.ok()) return nullptr;
    taken_ = true;
    return std::move(db_);
  }

 protected:
  Status EnsureReady() {
    AIMAI_RETURN_IF_ERROR(PrepareInitialData());
    return Status::Ok();
  }

  QueryStreamSpec spec_;
  DbBuilder builder_;
  std::unique_ptr<BenchmarkDatabase> db_;
  Rng stream_rng_;
  bool taken_ = false;
};

/// Stream over a *closed* workload family (tpch, tpcds, customer,
/// tpch_sf): replays the family's built template instances in a seeded
/// shuffled cycle, reshuffling at each wrap, with stream-unique instance
/// names. Parameter constants repeat per cycle — matching how a
/// production app re-issues the same statement templates — while the
/// arrival *order* keeps varying.
class ReplayStreamGenerator : public StreamGeneratorBase {
 public:
  using StreamGeneratorBase::StreamGeneratorBase;

  StatusOr<std::vector<QuerySpec>> NextQueryBatch(int max_queries) override {
    if (max_queries <= 0) {
      return Status::InvalidArgument("max_queries must be positive");
    }
    AIMAI_RETURN_IF_ERROR(EnsureReady());
    const std::vector<QuerySpec>& templates = db_->queries();
    if (templates.empty()) {
      return Status::FailedPrecondition("workload has no query templates: " +
                                        spec_.kind);
    }
    if (order_.empty()) {
      order_.resize(templates.size());
      for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      stream_rng_.Shuffle(&order_);
    }
    std::vector<QuerySpec> batch;
    batch.reserve(static_cast<size_t>(max_queries));
    for (int i = 0; i < max_queries; ++i) {
      QuerySpec q = templates[order_[cursor_++]];
      q.name += "~" + std::to_string(seq_++);
      batch.push_back(std::move(q));
      if (cursor_ == order_.size()) {
        cursor_ = 0;
        stream_rng_.Shuffle(&order_);
      }
    }
    return batch;
  }

 private:
  std::vector<size_t> order_;
  size_t cursor_ = 0;
  uint64_t seq_ = 0;
};

/// The open synthetic family: the database is a mid-size customer-profile
/// schema, but NextQueryBatch *instantiates brand-new single-table
/// queries forever* — fresh predicate columns, operators, and constants
/// every draw, never cycling. This is the drifting-workload stressor: no
/// finite template set describes the stream.
class SyntheticStreamGenerator : public StreamGeneratorBase {
 public:
  using StreamGeneratorBase::StreamGeneratorBase;

  StatusOr<std::vector<QuerySpec>> NextQueryBatch(int max_queries) override {
    if (max_queries <= 0) {
      return Status::InvalidArgument("max_queries must be positive");
    }
    AIMAI_RETURN_IF_ERROR(EnsureReady());
    std::vector<QuerySpec> batch;
    batch.reserve(static_cast<size_t>(max_queries));
    for (int i = 0; i < max_queries; ++i) batch.push_back(Synthesize());
    return batch;
  }

 private:
  QuerySpec Synthesize() {
    const Database& d = *db_->db();
    QuerySpec q;
    q.name = "syn~" + std::to_string(seq_++);
    const int t = static_cast<int>(
        stream_rng_.Index(static_cast<size_t>(d.num_tables())));
    q.tables = {t};
    const Table& table = d.table(t);

    const int n_preds = 1 + static_cast<int>(stream_rng_.Index(2));
    for (int p = 0; p < n_preds; ++p) {
      const int c = static_cast<int>(stream_rng_.Index(table.num_columns()));
      q.predicates.push_back(RandomPredicate(d, t, c));
    }

    // Numeric columns of the table (group/sum/order targets).
    std::vector<int> numeric;
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (table.column(c).type() != DataType::kString) {
        numeric.push_back(static_cast<int>(c));
      }
    }
    if (stream_rng_.Bernoulli(0.5)) {
      const int gcol =
          static_cast<int>(stream_rng_.Index(table.num_columns()));
      q.group_by = {ColumnRef{t, gcol}};
      q.aggregates = {{AggFunc::kCount, ColumnRef{}}};
      if (!numeric.empty()) {
        q.aggregates.push_back(
            {AggFunc::kSum,
             ColumnRef{t, numeric[stream_rng_.Index(numeric.size())]}});
      }
      q.order_by = {SortKey{ColumnRef{t, gcol}, true}};
    } else {
      for (size_t c = 0; c < table.num_columns() && q.select_columns.size() < 3;
           ++c) {
        q.select_columns.push_back(ColumnRef{t, static_cast<int>(c)});
      }
      if (!numeric.empty() && stream_rng_.Bernoulli(0.5)) {
        q.order_by = {
            SortKey{ColumnRef{t, numeric[stream_rng_.Index(numeric.size())]},
                    stream_rng_.Bernoulli(0.5)}};
        if (stream_rng_.Bernoulli(0.5)) q.top_n = stream_rng_.UniformInt(10, 200);
      }
    }
    return q;
  }

  Predicate RandomPredicate(const Database& d, int t, int c) {
    using workload_internal::PredBetween;
    using workload_internal::PredCmp;
    using workload_internal::PredEq;
    const Column& col = d.table(t).column(static_cast<size_t>(c));
    if (col.type() == DataType::kString) {
      return PredEq(t, c,
                    workload_internal::RowValue(d, t, c, &stream_rng_));
    }
    const double v =
        col.NumericAt(stream_rng_.Index(d.table(t).num_rows()));
    const double pick = stream_rng_.Uniform();
    if (col.type() == DataType::kInt64) {
      const int64_t iv = static_cast<int64_t>(v);
      if (pick < 0.35) return PredEq(t, c, Value::Int(iv));
      if (pick < 0.65) {
        return PredCmp(t, c,
                       stream_rng_.Bernoulli(0.5) ? CmpOp::kLe : CmpOp::kGe,
                       Value::Int(iv));
      }
      return PredBetween(t, c, Value::Int(iv),
                         Value::Int(iv + stream_rng_.UniformInt(1, 1000)));
    }
    if (pick < 0.5) {
      return PredCmp(t, c,
                     stream_rng_.Bernoulli(0.5) ? CmpOp::kLe : CmpOp::kGe,
                     Value::Real(v));
    }
    return PredBetween(t, c, Value::Real(v),
                       Value::Real(v * stream_rng_.Uniform(1.01, 2.0)));
  }

  uint64_t seq_ = 0;
};

/// The synthetic family's database profile: mid-size, moderately skewed,
/// with a handful of template queries kept so `database()->queries()` is
/// usable by closed-subset consumers too.
CustomerProfile SyntheticProfile() {
  CustomerProfile p;
  p.num_tables = 6;
  p.min_rows = 1000;
  p.max_rows = 15000;
  p.num_queries = 8;
  p.max_joins = 3;
  p.zipf_s = 0.7;
  return p;
}

void RegisterBuiltins(QueryStreamRegistry* reg) {
  auto check = [](Status st) { AIMAI_CHECK_MSG(st.ok(), st.message().c_str()); };
  check(reg->Register("tpch", [](const QueryStreamSpec& spec)
                                  -> StatusOr<std::unique_ptr<IQueryStreamGenerator>> {
    if (spec.scale < 1) {
      return Status::InvalidArgument("tpch scale must be >= 1");
    }
    return std::unique_ptr<IQueryStreamGenerator>(new ReplayStreamGenerator(
        spec, [](const QueryStreamSpec& s) {
          return BuildTpchLike(s.ResolvedDbName(), s.scale, 0.9, s.seed);
        }));
  }));
  check(reg->Register("tpcds", [](const QueryStreamSpec& spec)
                                   -> StatusOr<std::unique_ptr<IQueryStreamGenerator>> {
    if (spec.scale < 1) {
      return Status::InvalidArgument("tpcds scale must be >= 1");
    }
    return std::unique_ptr<IQueryStreamGenerator>(new ReplayStreamGenerator(
        spec, [](const QueryStreamSpec& s) {
          return BuildTpcdsLike(s.ResolvedDbName(), s.scale, 0.8,
                                /*with_columnstore=*/false, s.seed);
        }));
  }));
  check(reg->Register("tpch_sf", [](const QueryStreamSpec& spec)
                                     -> StatusOr<std::unique_ptr<IQueryStreamGenerator>> {
    if (spec.sf <= 0) {
      return Status::InvalidArgument("tpch_sf sf must be > 0");
    }
    return std::unique_ptr<IQueryStreamGenerator>(new ReplayStreamGenerator(
        spec, [](const QueryStreamSpec& s) {
          TpchSfOptions options;
          options.sf = s.sf;
          options.seed = s.seed;
          options.pool = SharedPool();
          return BuildTpchSf(s.ResolvedDbName(), options);
        }));
  }));
  // "customerN" — N selects the profile; the database keeps the kind as
  // its name unless the spec sets db_name.
  check(reg->RegisterPrefix(
      "customer", [](const QueryStreamSpec& spec)
                      -> StatusOr<std::unique_ptr<IQueryStreamGenerator>> {
        const int idx = spec.kind.size() > 8
                            ? std::atoi(spec.kind.c_str() + 8)
                            : 2;
        if (idx < 1 || idx > 11) {
          return Status::InvalidArgument("customer profile out of range: " +
                                         spec.kind);
        }
        return std::unique_ptr<IQueryStreamGenerator>(new ReplayStreamGenerator(
            spec, [idx](const QueryStreamSpec& s) {
              return BuildCustomer(
                  s.db_name.empty() ? s.kind : s.db_name,
                  CustomerProfileFor(idx), s.seed);
            }));
      }));
  check(reg->Register(
      "synthetic", [](const QueryStreamSpec& spec)
                       -> StatusOr<std::unique_ptr<IQueryStreamGenerator>> {
        return std::unique_ptr<IQueryStreamGenerator>(
            new SyntheticStreamGenerator(spec, [](const QueryStreamSpec& s) {
              return BuildCustomer(s.ResolvedDbName(), SyntheticProfile(),
                                   s.seed);
            }));
      }));
}

}  // namespace

std::string SchemaDdl(const Database& db) {
  std::string ddl;
  for (int t = 0; t < db.num_tables(); ++t) {
    const Table& table = db.table(t);
    ddl += "CREATE TABLE " + table.name() + " (";
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) ddl += ",";
      const Column& col = table.column(c);
      ddl += "\n  " + col.name() + " " + SqlTypeName(col.type());
    }
    ddl += "\n);\n";
  }
  return ddl;
}

QueryStreamRegistry& QueryStreamRegistry::Global() {
  static QueryStreamRegistry* registry = [] {
    auto* reg = new QueryStreamRegistry();
    RegisterBuiltins(reg);
    return reg;
  }();
  return *registry;
}

Status QueryStreamRegistry::Register(const std::string& kind,
                                     Factory factory) {
  AIMAI_CHECK(factory != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, f] : exact_) {
    if (k == kind) {
      return Status(StatusCode::kFailedPrecondition,
                    "query stream kind already registered: " + kind);
    }
  }
  exact_.emplace_back(kind, std::move(factory));
  return Status::Ok();
}

Status QueryStreamRegistry::RegisterPrefix(const std::string& prefix,
                                           Factory factory) {
  AIMAI_CHECK(factory != nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [p, f] : prefixes_) {
    if (p == prefix) {
      return Status(StatusCode::kFailedPrecondition,
                    "query stream prefix already registered: " + prefix);
    }
  }
  prefixes_.emplace_back(prefix, std::move(factory));
  return Status::Ok();
}

StatusOr<std::unique_ptr<IQueryStreamGenerator>> QueryStreamRegistry::Create(
    const QueryStreamSpec& spec) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [k, f] : exact_) {
      if (k == spec.kind) {
        factory = f;
        break;
      }
    }
    if (!factory) {
      size_t best = 0;
      for (const auto& [p, f] : prefixes_) {
        if (spec.kind.rfind(p, 0) == 0 && p.size() >= best) {
          best = p.size();
          factory = f;
        }
      }
    }
  }
  if (!factory) {
    return Status(StatusCode::kInvalidArgument,
                  "unknown query stream kind: " + spec.kind);
  }
  return factory(spec);
}

bool QueryStreamRegistry::Knows(const std::string& kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [k, f] : exact_) {
    if (k == kind) return true;
  }
  for (const auto& [p, f] : prefixes_) {
    if (kind.rfind(p, 0) == 0) return true;
  }
  return false;
}

std::vector<std::string> QueryStreamRegistry::Kinds() const {
  std::vector<std::string> kinds;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [k, f] : exact_) kinds.push_back(k);
    for (const auto& [p, f] : prefixes_) kinds.push_back(p + "*");
  }
  std::sort(kinds.begin(), kinds.end());
  return kinds;
}

StatusOr<std::unique_ptr<IQueryStreamGenerator>> MakePreparedQueryStream(
    const QueryStreamSpec& spec) {
  AIMAI_ASSIGN_OR_RETURN(auto gen, QueryStreamRegistry::Global().Create(spec));
  AIMAI_RETURN_IF_ERROR(gen->PrepareInitialData());
  return gen;
}

}  // namespace aimai
