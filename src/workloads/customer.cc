#include "workloads/customer.h"

#include <algorithm>

#include "common/string_util.h"
#include "storage/data_generator.h"
#include "workloads/query_helpers.h"

namespace aimai {

namespace {
using workload_internal::Col;
using workload_internal::Join;
using workload_internal::PredBetween;
using workload_internal::PredCmp;
using workload_internal::PredEq;
}  // namespace

CustomerProfile CustomerProfileFor(int index) {
  CustomerProfile p;
  switch (index) {
    case 1:   // Small OLTP-ish app.
      p = {4, 500, 6000, 10, 2, 0.3, 0.2, 2, 0.3};
      break;
    case 2:   // Mid-size, moderate skew.
      p = {6, 1000, 15000, 12, 3, 0.7, 0.3, 3, 0.5};
      break;
    case 3:   // Wide tables, few joins.
      p = {5, 2000, 25000, 12, 2, 0.5, 0.4, 4, 0.4};
      break;
    case 4:   // Star-schema reporting.
      p = {7, 500, 30000, 14, 4, 0.9, 0.3, 3, 0.8};
      break;
    case 5:   // Heavy skew.
      p = {6, 1000, 20000, 12, 3, 1.1, 0.4, 3, 0.5};
      break;
    case 6:   // The most complex: many tables, deep joins.
      p = {12, 800, 40000, 24, 8, 0.9, 0.4, 4, 0.7};
      break;
    case 7:   // Correlation-heavy.
      p = {6, 1000, 18000, 12, 3, 0.6, 0.7, 3, 0.5};
      break;
    case 8:   // Large single-fact analytics.
      p = {5, 2000, 50000, 12, 3, 0.8, 0.3, 3, 0.9};
      break;
    case 9:   // Many small tables.
      p = {10, 300, 5000, 16, 5, 0.4, 0.2, 2, 0.4};
      break;
    case 10:  // Mixed point lookup + reporting.
      p = {6, 1000, 25000, 14, 4, 0.7, 0.3, 3, 0.5};
      break;
    case 11:  // Deep joins, low volume.
      p = {9, 400, 8000, 14, 6, 0.5, 0.3, 3, 0.6};
      break;
    default:
      break;
  }
  return p;
}

std::unique_ptr<BenchmarkDatabase> BuildCustomer(const std::string& name,
                                                 const CustomerProfile& prof,
                                                 uint64_t seed) {
  auto bdb = std::make_unique<BenchmarkDatabase>(name, seed ^ 0xc0ffee);
  Database* db = bdb->db();
  Rng rng(seed);
  DataGenerator gen(rng.Split());

  // --- Schema: table 0 is the "fact"; each later table i gets a PK and
  // every table > 0 is reachable from some earlier table via an FK.
  struct TableMeta {
    int id;
    size_t rows;
    std::vector<int> fk_cols;      // Columns referencing earlier tables.
    std::vector<int> fk_targets;   // Referenced table ids.
    std::vector<int> value_cols;   // Filterable columns.
  };
  std::vector<TableMeta> metas;

  for (int ti = 0; ti < prof.num_tables; ++ti) {
    TableMeta meta;
    const double frac = rng.Uniform();
    meta.rows = prof.min_rows +
                static_cast<size_t>(frac * frac *
                                    static_cast<double>(prof.max_rows -
                                                        prof.min_rows));
    if (ti == 0) meta.rows = prof.max_rows;  // Table 0 is the biggest.

    auto table = std::make_unique<Table>("t" + std::to_string(ti));
    gen.FillSequentialInt(table->AddColumn("pk", DataType::kInt64),
                          meta.rows);

    // FKs to up to two random earlier tables.
    if (ti > 0) {
      const int n_fks = 1 + (prof.max_joins > 2 && rng.Bernoulli(0.4) ? 1 : 0);
      for (int f = 0; f < n_fks && f < ti; ++f) {
        const int target = static_cast<int>(rng.Index(static_cast<size_t>(ti)));
        const std::string cname = "fk" + std::to_string(f);
        gen.FillForeignKey(table->AddColumn(cname, DataType::kInt64),
                           meta.rows,
                           static_cast<int64_t>(metas[static_cast<size_t>(
                                                          target)]
                                                    .rows),
                           rng.Bernoulli(0.5) ? prof.zipf_s : 0.0);
        meta.fk_cols.push_back(table->ColumnIndex(cname));
        meta.fk_targets.push_back(target);
      }
    } else {
      // The fact table gets FKs filled in reverse later; instead give it
      // extra value columns.
    }

    // Value columns: ints (uniform or zipf), doubles, strings; some
    // correlated with the previous value column.
    const int n_values = 3 + static_cast<int>(rng.Index(4));
    Column* prev_int = nullptr;
    for (int v = 0; v < n_values; ++v) {
      const std::string cname = StrFormat("v%d", v);
      const double pick = rng.Uniform();
      if (pick < 0.5) {
        Column* col = table->AddColumn(cname, DataType::kInt64);
        if (prev_int != nullptr && rng.Bernoulli(prof.correlation_fraction)) {
          gen.FillCorrelatedInt(col, *prev_int, meta.rows,
                                rng.Uniform(0.5, 3.0),
                                rng.UniformInt(0, 20));
        } else {
          const int64_t domain = rng.UniformInt(10, 10000);
          gen.FillZipfInt(col, meta.rows, 0, domain,
                          rng.Bernoulli(0.5) ? prof.zipf_s : 0.0);
        }
        prev_int = col;
      } else if (pick < 0.75) {
        gen.FillUniformDouble(table->AddColumn(cname, DataType::kDouble),
                              meta.rows, 0, rng.Uniform(100, 100000));
      } else if (rng.Bernoulli(prof.correlation_fraction)) {
        // Correlated with the primary key: filters on it select the rows
        // that skewed foreign keys point at.
        gen.FillBucketCorrelatedDict(
            table->AddColumn(cname, DataType::kString),
            *table->mutable_column(
                static_cast<size_t>(table->ColumnIndex("pk"))),
            meta.rows, rng.UniformInt(4, 50), prof.zipf_s, 0.2,
            "s" + std::to_string(ti) + "_");
      } else {
        gen.FillDictString(table->AddColumn(cname, DataType::kString),
                           meta.rows, rng.UniformInt(4, 200),
                           rng.Bernoulli(0.5) ? prof.zipf_s : 0.0,
                           "s" + std::to_string(ti) + "_");
      }
      meta.value_cols.push_back(table->ColumnIndex(cname));
    }
    table->SealRows();
    meta.id = db->AddTable(std::move(table));
    metas.push_back(std::move(meta));
  }

  // Give table 0 FKs into several other tables so deep join chains exist.
  {
    Table* fact = db->mutable_table(metas[0].id);
    DataGenerator fgen(rng.Split());
    const int n_fks = std::min(prof.num_tables - 1, prof.max_joins);
    for (int f = 0; f < n_fks; ++f) {
      const int target = 1 + f;
      const std::string cname = "fk" + std::to_string(f);
      fgen.FillForeignKey(
          fact->AddColumn(cname, DataType::kInt64), metas[0].rows,
          static_cast<int64_t>(metas[static_cast<size_t>(target)].rows),
          rng.Bernoulli(0.6) ? prof.zipf_s : 0.0);
      metas[0].fk_cols.push_back(fact->ColumnIndex(cname));
      metas[0].fk_targets.push_back(target);
    }
    fact->SealRows();
  }

  bdb->FinishLoading();
  const Database& d = *db;

  // --- Queries: random join trees rooted at a random table, random
  // predicates on value columns, optional aggregation / ordering.
  auto random_predicate = [&](int table_id, int col) -> Predicate {
    const Column& c = d.table(table_id).column(static_cast<size_t>(col));
    if (c.type() == DataType::kString) {
      // Frequency-weighted parameter most of the time (application-like).
      return PredEq(table_id, col,
                    rng.Bernoulli(0.65)
                        ? workload_internal::RowValue(d, table_id, col, &rng)
                        : workload_internal::DictValue(d, table_id, col,
                                                       &rng));
    }
    // Sample two actual values for a range (or one for eq/cmp).
    const size_t r1 = rng.Index(d.table(table_id).num_rows());
    const double v1 = c.NumericAt(r1);
    const double pick = rng.Uniform();
    if (c.type() == DataType::kInt64) {
      const int64_t iv = static_cast<int64_t>(v1);
      if (pick < 0.4) return PredEq(table_id, col, Value::Int(iv));
      if (pick < 0.7) {
        return PredCmp(table_id, col, rng.Bernoulli(0.5) ? CmpOp::kLe
                                                         : CmpOp::kGe,
                       Value::Int(iv));
      }
      return PredBetween(table_id, col, Value::Int(iv),
                         Value::Int(iv + rng.UniformInt(1, 1000)));
    }
    if (pick < 0.5) {
      return PredCmp(table_id, col, rng.Bernoulli(0.5) ? CmpOp::kLe
                                                       : CmpOp::kGe,
                     Value::Real(v1));
    }
    return PredBetween(table_id, col, Value::Real(v1),
                       Value::Real(v1 * rng.Uniform(1.01, 2.0)));
  };

  for (int qi = 0; qi < prof.num_queries; ++qi) {
    QuerySpec q;
    q.name = "cq" + std::to_string(qi);

    // Grow a connected join tree via FK edges.
    const int target_tables =
        1 + static_cast<int>(rng.Index(static_cast<size_t>(prof.max_joins) + 1));
    std::vector<int> in_query;
    int start = qi % 3 == 0
                    ? static_cast<int>(rng.Index(metas.size()))
                    : 0;  // Bias toward the fact table.
    in_query.push_back(start);
    // Collect FK edges incident to tables in the query.
    bool grew = true;
    while (static_cast<int>(in_query.size()) < target_tables && grew) {
      grew = false;
      for (const TableMeta& m : metas) {
        if (static_cast<int>(in_query.size()) >= target_tables) break;
        for (size_t f = 0; f < m.fk_cols.size(); ++f) {
          // Membership must be rechecked per edge: adding an endpoint
          // below changes it for the next foreign key of the same table.
          const bool m_in =
              std::find(in_query.begin(), in_query.end(), m.id) !=
              in_query.end();
          const int tgt = metas[static_cast<size_t>(m.fk_targets[f])].id;
          const bool t_in =
              std::find(in_query.begin(), in_query.end(), tgt) !=
              in_query.end();
          if (m_in == t_in) continue;  // Both in or both out.
          if (static_cast<int>(in_query.size()) >= target_tables) break;
          // Add the missing endpoint and the join condition.
          in_query.push_back(m_in ? tgt : m.id);
          q.joins.push_back(Join(m.id, m.fk_cols[f], tgt,
                                 Col(d, tgt, "pk")));
          grew = true;
        }
      }
    }
    q.tables = in_query;

    // Predicates.
    const int n_preds =
        1 + static_cast<int>(rng.Index(static_cast<size_t>(
                prof.max_predicates)));
    for (int p = 0; p < n_preds; ++p) {
      const int t = q.tables[rng.Index(q.tables.size())];
      const TableMeta& m = metas[static_cast<size_t>(t)];
      if (m.value_cols.empty()) continue;
      const int col = m.value_cols[rng.Index(m.value_cols.size())];
      q.predicates.push_back(random_predicate(t, col));
    }

    // Shape: aggregate or plain select.
    const int t0 = q.tables[0];
    const TableMeta& m0 = metas[static_cast<size_t>(t0)];
    if (rng.Bernoulli(prof.agg_probability) && !m0.value_cols.empty()) {
      const int gcol = m0.value_cols[rng.Index(m0.value_cols.size())];
      q.group_by = {ColumnRef{t0, gcol}};
      q.aggregates = {{AggFunc::kCount, ColumnRef{}}};
      // Sum over some numeric column if available.
      for (int vc : m0.value_cols) {
        if (d.table(t0).column(static_cast<size_t>(vc)).type() !=
            DataType::kString) {
          q.aggregates.push_back({AggFunc::kSum, ColumnRef{t0, vc}});
          break;
        }
      }
      q.order_by = {SortKey{ColumnRef{t0, gcol}, true}};
    } else {
      for (int vc : m0.value_cols) {
        q.select_columns.push_back(ColumnRef{t0, vc});
        if (q.select_columns.size() >= 3) break;
      }
      if (!m0.value_cols.empty() && rng.Bernoulli(0.6)) {
        q.order_by = {
            SortKey{ColumnRef{t0, m0.value_cols[0]}, rng.Bernoulli(0.5)}};
        if (rng.Bernoulli(0.5)) q.top_n = rng.UniformInt(10, 200);
      }
    }
    bdb->queries().push_back(std::move(q));
  }
  return bdb;
}

}  // namespace aimai
