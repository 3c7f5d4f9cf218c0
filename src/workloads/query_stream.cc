#include "workloads/query_stream.h"

#include <charconv>

#include "common/thread_pool.h"
#include "obs/obs.h"
#include "workloads/customer.h"
#include "workloads/query_helpers.h"
#include "workloads/tpcds_like.h"
#include "workloads/tpch_like.h"
#include "workloads/tpch_sf.h"

namespace aimai {

namespace {

/// Derives the stream Rng seed from the spec seed. The salt decouples the
/// query stream from the data-generation draws (both start from
/// spec.seed), so adding data columns never perturbs the stream.
constexpr uint64_t kStreamSeedSalt = 0x9e3779b97f4a7c15ULL;

/// Stream over a *closed* workload family (tpch, tpcds, customer,
/// tpch_sf): replays the family's built template instances in a seeded
/// shuffled cycle, reshuffling at each wrap, with stream-unique instance
/// names. Parameter constants repeat per cycle — matching how a
/// production app re-issues the same statement templates — while the
/// arrival *order* keeps varying.
class ReplayStreamGenerator : public IQueryStreamGenerator {
 public:
  using IQueryStreamGenerator::IQueryStreamGenerator;

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
      q.name += '~';
      q.name += std::to_string(seq_++);
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
class SyntheticStreamGenerator : public IQueryStreamGenerator {
 public:
  using IQueryStreamGenerator::IQueryStreamGenerator;

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

}  // namespace

IQueryStreamGenerator::IQueryStreamGenerator(
    QueryStreamSpec spec, std::unique_ptr<BenchmarkDatabase> db)
    : spec_(std::move(spec)),
      db_(std::move(db)),
      stream_rng_(spec_.seed ^ kStreamSeedSalt) {}

Status IQueryStreamGenerator::EnsureReady() const {
  if (db_ == nullptr) {
    return Status::FailedPrecondition("query stream database already taken");
  }
  return Status::Ok();
}

StatusOr<std::unique_ptr<IQueryStreamGenerator>> MakePreparedQueryStream(
    const QueryStreamSpec& spec) {
  std::unique_ptr<BenchmarkDatabase> db;
  if (spec.kind == "tpch") {
    if (spec.scale < 1) {
      return Status::InvalidArgument("tpch scale must be >= 1");
    }
    AIMAI_SPAN("workloads.generate.tpch");
    db = BuildTpchLike(spec.ResolvedDbName(), spec.scale, 0.9, spec.seed);
  } else if (spec.kind == "tpcds") {
    if (spec.scale < 1) {
      return Status::InvalidArgument("tpcds scale must be >= 1");
    }
    AIMAI_SPAN("workloads.generate.tpcds");
    db = BuildTpcdsLike(spec.ResolvedDbName(), spec.scale, 0.8,
                        /*with_columnstore=*/false, spec.seed);
  } else if (spec.kind == "tpch_sf") {
    // Negated so NaN fails too; BuildTpchSf CHECKs the same range.
    if (!(spec.sf > 0 && spec.sf <= 100)) {
      return Status::InvalidArgument("tpch_sf sf must be in (0, 100]");
    }
    AIMAI_SPAN("workloads.generate.tpch_sf");
    TpchSfOptions options;
    options.sf = spec.sf;
    options.seed = spec.seed;
    options.pool = SharedPool();
    db = BuildTpchSf(spec.ResolvedDbName(), options);
  } else if (spec.kind == "synthetic") {
    AIMAI_SPAN("workloads.generate.synthetic");
    return std::unique_ptr<IQueryStreamGenerator>(new SyntheticStreamGenerator(
        spec,
        BuildCustomer(spec.ResolvedDbName(), SyntheticProfile(), spec.seed)));
  } else if (spec.kind.rfind("customer", 0) == 0) {
    // "customerN" — N (digits only, 1..11) selects the profile; the
    // database keeps the kind as its name unless the spec sets db_name.
    const char* first = spec.kind.data() + 8;
    const char* last = spec.kind.data() + spec.kind.size();
    int idx = 0;
    const auto [end, ec] = std::from_chars(first, last, idx);
    if (ec != std::errc() || end != last || idx < 1 || idx > 11) {
      return Status::InvalidArgument(
          "customer kind must be customerN with N in 1..11: " + spec.kind);
    }
    AIMAI_SPAN("workloads.generate.customer");
    db = BuildCustomer(spec.db_name.empty() ? spec.kind : spec.db_name,
                       CustomerProfileFor(idx), spec.seed);
  } else {
    return Status::InvalidArgument("unknown query stream kind: " + spec.kind);
  }
  return std::unique_ptr<IQueryStreamGenerator>(
      new ReplayStreamGenerator(spec, std::move(db)));
}

const std::vector<std::string>& QueryStreamKinds() {
  static const std::vector<std::string> kinds = {
      "customer*", "synthetic", "tpcds", "tpch", "tpch_sf"};
  return kinds;
}

}  // namespace aimai
