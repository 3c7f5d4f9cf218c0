#include "workloads/tpch_sf.h"

#include <cmath>

#include "common/check.h"
#include "storage/data_generator.h"
#include "workloads/query_helpers.h"

namespace aimai {

namespace {

using workload_internal::AddInstances;
using workload_internal::Col;
using workload_internal::DictValue;
using workload_internal::Join;
using workload_internal::PredBetween;
using workload_internal::PredCmp;
using workload_internal::PredEq;
using workload_internal::RowValue;

// TPC-H's date domain: 1992-01-01 .. 1998-12-31 as day numbers.
constexpr int64_t kDateSpan = 2557;
// Orders stop 151 days before the end of the domain (lineitems ship
// after their order), mirroring the official generator's o_orderdate cap.
constexpr int64_t kOrderDateSpan = kDateSpan - 151;
// Zipf skew on foreign keys (order->customer, lineitem->order/part,
// partsupp->part): a few parents own most children.
constexpr double kFkSkew = 0.9;
// Zipf skew on low-cardinality attribute dictionaries (priority,
// shipmode, segment marginals).
constexpr double kAttrSkew = 0.8;

}  // namespace

size_t TpchSfRows(double sf, double base) {
  const double rows = std::llround(sf * base);
  return rows < 1 ? 1 : static_cast<size_t>(rows);
}

std::unique_ptr<BenchmarkDatabase> BuildTpchSf(const std::string& name,
                                               const TpchSfOptions& options) {
  AIMAI_CHECK_MSG(options.sf > 0.0 && options.sf <= 100.0,
                  "BuildTpchSf: sf must be in (0, 100]");
  AIMAI_CHECK_MSG(options.instances_per_family >= 1,
                  "BuildTpchSf: instances_per_family must be >= 1");
  auto bdb = std::make_unique<BenchmarkDatabase>(name, options.seed ^ 0x5f5f);
  Database* db = bdb->db();

  const double sf = options.sf;
  const size_t n_supplier = TpchSfRows(sf, kTpchSfSupplierBase);
  const size_t n_customer = TpchSfRows(sf, kTpchSfCustomerBase);
  const size_t n_part = TpchSfRows(sf, kTpchSfPartBase);
  const size_t n_partsupp = TpchSfRows(sf, kTpchSfPartsuppBase);
  const size_t n_orders = TpchSfRows(sf, kTpchSfOrdersBase);
  const size_t n_lineitem = TpchSfRows(sf, kTpchSfLineitemBase);

  // ---- Schema. All columns exist before any fill runs; the fill plan
  // below streams values into them column by column, one task per column,
  // so the peak transient memory beyond the resident database is a single
  // column's working set (per worker thread).
  auto region = std::make_unique<Table>("region");
  Column* r_regionkey = region->AddColumn("r_regionkey", DataType::kInt64);
  Column* r_name = region->AddColumn("r_name", DataType::kString);

  auto nation = std::make_unique<Table>("nation");
  Column* n_nationkey = nation->AddColumn("n_nationkey", DataType::kInt64);
  Column* n_regionkey = nation->AddColumn("n_regionkey", DataType::kInt64);
  Column* n_name = nation->AddColumn("n_name", DataType::kString);

  auto supplier = std::make_unique<Table>("supplier");
  Column* s_suppkey = supplier->AddColumn("s_suppkey", DataType::kInt64);
  Column* s_nationkey = supplier->AddColumn("s_nationkey", DataType::kInt64);
  Column* s_acctbal = supplier->AddColumn("s_acctbal", DataType::kDouble);

  auto customer = std::make_unique<Table>("customer");
  Column* c_custkey = customer->AddColumn("c_custkey", DataType::kInt64);
  Column* c_nationkey = customer->AddColumn("c_nationkey", DataType::kInt64);
  Column* c_mktsegment =
      customer->AddColumn("c_mktsegment", DataType::kString);
  Column* c_acctbal = customer->AddColumn("c_acctbal", DataType::kDouble);

  auto part = std::make_unique<Table>("part");
  Column* p_partkey = part->AddColumn("p_partkey", DataType::kInt64);
  Column* p_name = part->AddColumn("p_name", DataType::kString);
  Column* p_brand = part->AddColumn("p_brand", DataType::kString);
  Column* p_type = part->AddColumn("p_type", DataType::kString);
  Column* p_size = part->AddColumn("p_size", DataType::kInt64);
  Column* p_retailprice =
      part->AddColumn("p_retailprice", DataType::kDouble);

  auto partsupp = std::make_unique<Table>("partsupp");
  Column* ps_partkey = partsupp->AddColumn("ps_partkey", DataType::kInt64);
  Column* ps_suppkey = partsupp->AddColumn("ps_suppkey", DataType::kInt64);
  Column* ps_supplycost =
      partsupp->AddColumn("ps_supplycost", DataType::kDouble);
  Column* ps_availqty = partsupp->AddColumn("ps_availqty", DataType::kInt64);

  auto orders = std::make_unique<Table>("orders");
  Column* o_orderkey = orders->AddColumn("o_orderkey", DataType::kInt64);
  Column* o_custkey = orders->AddColumn("o_custkey", DataType::kInt64);
  Column* o_orderdate = orders->AddColumn("o_orderdate", DataType::kInt64);
  Column* o_totalprice =
      orders->AddColumn("o_totalprice", DataType::kDouble);
  Column* o_orderpriority =
      orders->AddColumn("o_orderpriority", DataType::kString);

  auto lineitem = std::make_unique<Table>("lineitem");
  Column* l_orderkey = lineitem->AddColumn("l_orderkey", DataType::kInt64);
  Column* l_partkey = lineitem->AddColumn("l_partkey", DataType::kInt64);
  Column* l_suppkey = lineitem->AddColumn("l_suppkey", DataType::kInt64);
  Column* l_quantity = lineitem->AddColumn("l_quantity", DataType::kInt64);
  Column* l_extendedprice =
      lineitem->AddColumn("l_extendedprice", DataType::kInt64);
  Column* l_discount = lineitem->AddColumn("l_discount", DataType::kDouble);
  Column* l_tax = lineitem->AddColumn("l_tax", DataType::kDouble);
  Column* l_shipdate = lineitem->AddColumn("l_shipdate", DataType::kInt64);
  Column* l_returnflag =
      lineitem->AddColumn("l_returnflag", DataType::kString);
  Column* l_shipmode = lineitem->AddColumn("l_shipmode", DataType::kString);

  // Exact-capacity reservations up front: multi-million-row appends never
  // pay vector-doubling overshoot (a 2x peak-memory tax at SF-scale).
  supplier->ReserveRows(n_supplier);
  customer->ReserveRows(n_customer);
  part->ReserveRows(n_part);
  partsupp->ReserveRows(n_partsupp);
  orders->ReserveRows(n_orders);
  lineitem->ReserveRows(n_lineitem);

  // ---- Fill plan. Stage one fills every independent column; the barrier
  // orders the three correlated fills after their source columns. Each
  // Add() pins the task's Rng stream by registration position, so this
  // whole build is bit-identical whether `options.pool` is null or wide.
  TableFillPlan plan(options.seed);

  plan.Add([=](DataGenerator* g) { g->FillSequentialInt(r_regionkey, 5); });
  plan.Add([=](DataGenerator* g) {
    g->FillDictString(r_name, 5, 5, 0.0, "reg");
  });
  plan.Add([=](DataGenerator* g) { g->FillSequentialInt(n_nationkey, 25); });
  plan.Add([=](DataGenerator* g) {
    g->FillForeignKey(n_regionkey, 25, 5, 0.0);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillDictString(n_name, 25, 25, 0.0, "nat");
  });
  plan.Add([=](DataGenerator* g) {
    g->FillSequentialInt(s_suppkey, n_supplier);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillForeignKey(s_nationkey, n_supplier, 25, kFkSkew);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillUniformDouble(s_acctbal, n_supplier, -999, 9999);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillSequentialInt(c_custkey, n_customer);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillForeignKey(c_nationkey, n_customer, 25, kFkSkew);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillUniformDouble(c_acctbal, n_customer, -999, 9999);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillSequentialInt(p_partkey, n_part);
  });
  // SF-scale vocabulary: one name per part. At SF >= 5 this crosses the
  // 10^6-entry mark that used to break the sorted-dictionary invariant.
  plan.Add([=](DataGenerator* g) {
    g->FillDictString(p_name, n_part, static_cast<int64_t>(n_part), 0.0,
                      "part");
  });
  plan.Add([=](DataGenerator* g) {
    g->FillDictString(p_type, n_part, 150, 0.0, "type");
  });
  plan.Add([=](DataGenerator* g) {
    g->FillUniformInt(p_size, n_part, 1, 50);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillUniformDouble(p_retailprice, n_part, 900, 2100);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillForeignKey(ps_partkey, n_partsupp,
                      static_cast<int64_t>(n_part), kFkSkew);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillForeignKey(ps_suppkey, n_partsupp,
                      static_cast<int64_t>(n_supplier), 0.0);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillUniformDouble(ps_supplycost, n_partsupp, 1, 1000);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillUniformInt(ps_availqty, n_partsupp, 1, 9999);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillSequentialInt(o_orderkey, n_orders);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillForeignKey(o_custkey, n_orders,
                      static_cast<int64_t>(n_customer), kFkSkew);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillDateInt(o_orderdate, n_orders, 0, kOrderDateSpan);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillUniformDouble(o_totalprice, n_orders, 900, 500000);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillDictString(o_orderpriority, n_orders, 5, kAttrSkew, "prio");
  });
  plan.Add([=](DataGenerator* g) {
    g->FillForeignKey(l_orderkey, n_lineitem,
                      static_cast<int64_t>(n_orders), kFkSkew);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillForeignKey(l_partkey, n_lineitem,
                      static_cast<int64_t>(n_part), kFkSkew);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillForeignKey(l_suppkey, n_lineitem,
                      static_cast<int64_t>(n_supplier), 0.0);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillUniformInt(l_quantity, n_lineitem, 1, 50);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillUniformDouble(l_discount, n_lineitem, 0.0, 0.1);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillUniformDouble(l_tax, n_lineitem, 0.0, 0.08);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillDateInt(l_shipdate, n_lineitem, 0, kDateSpan);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillDictString(l_shipmode, n_lineitem, 7, kAttrSkew, "mode");
  });

  plan.Barrier();

  // Correlated columns: optimizer traps at scale. Market segment buckets
  // the customer key (skewed order FKs concentrate on one segment),
  // extended price moves with quantity, and the return flag buckets the
  // order key (old orders were returned more).
  plan.Add([=](DataGenerator* g) {
    g->FillBucketCorrelatedDict(c_mktsegment, *c_custkey, n_customer, 5,
                                kAttrSkew, 0.15, "seg");
  });
  plan.Add([=](DataGenerator* g) {
    g->FillBucketCorrelatedDict(p_brand, *p_partkey, n_part, 25, kAttrSkew,
                                0.2, "brand");
  });
  plan.Add([=](DataGenerator* g) {
    g->FillCorrelatedInt(l_extendedprice, *l_quantity, n_lineitem, 1000.0,
                         5000);
  });
  plan.Add([=](DataGenerator* g) {
    g->FillBucketCorrelatedDict(l_returnflag, *l_orderkey, n_lineitem, 3,
                                kAttrSkew, 0.25, "rf");
  });

  plan.Run(options.pool);

  region->SealRows();
  nation->SealRows();
  supplier->SealRows();
  customer->SealRows();
  part->SealRows();
  partsupp->SealRows();
  orders->SealRows();
  lineitem->SealRows();

  const int t_region = db->AddTable(std::move(region));
  const int t_nation = db->AddTable(std::move(nation));
  const int t_supplier = db->AddTable(std::move(supplier));
  const int t_customer = db->AddTable(std::move(customer));
  const int t_part = db->AddTable(std::move(part));
  const int t_partsupp = db->AddTable(std::move(partsupp));
  const int t_orders = db->AddTable(std::move(orders));
  const int t_lineitem = db->AddTable(std::move(lineitem));
  (void)t_region;
  (void)t_nation;
  (void)t_supplier;
  (void)t_partsupp;

  bdb->FinishLoading();

  // ---- Query families. Substitution parameters are drawn per instance
  // from a stream independent of data generation, frequency-weighted most
  // of the time (applications parameterize queries from their own data).
  Rng qrng(options.seed ^ 0x7a5c);
  std::vector<QuerySpec>& queries = bdb->queries();
  const Database& d = *db;
  const int k = options.instances_per_family;

  auto seg_value = [&](Rng* r) {
    const int c = Col(d, t_customer, "c_mktsegment");
    return r->Bernoulli(0.65) ? RowValue(d, t_customer, c, r)
                              : DictValue(d, t_customer, c, r);
  };

  // Q1-shaped: pricing summary over shipped lineitems (big scan + group).
  AddInstances(&queries, "q01", k, [&](int, QuerySpec* q) {
    q->tables = {t_lineitem};
    q->predicates = {
        PredCmp(t_lineitem, Col(d, t_lineitem, "l_shipdate"), CmpOp::kLe,
                Value::Int(qrng.UniformInt(kDateSpan - 120, kDateSpan - 60)))};
    q->group_by = {ColumnRef{t_lineitem, Col(d, t_lineitem, "l_returnflag")}};
    q->aggregates = {
        {AggFunc::kSum,
         ColumnRef{t_lineitem, Col(d, t_lineitem, "l_extendedprice")}},
        {AggFunc::kAvg, ColumnRef{t_lineitem, Col(d, t_lineitem,
                                                  "l_quantity")}},
        {AggFunc::kCount, ColumnRef{}}};
    q->order_by = {
        SortKey{ColumnRef{t_lineitem, Col(d, t_lineitem, "l_returnflag")},
                true}};
  });

  // Q3-shaped: shipping priority (segment filter + 3-way join + TOP).
  AddInstances(&queries, "q03", k, [&](int, QuerySpec* q) {
    q->tables = {t_customer, t_orders, t_lineitem};
    const int64_t cutoff = qrng.UniformInt(kOrderDateSpan / 3,
                                           kOrderDateSpan - 200);
    q->predicates = {
        PredEq(t_customer, Col(d, t_customer, "c_mktsegment"),
               seg_value(&qrng)),
        PredCmp(t_orders, Col(d, t_orders, "o_orderdate"), CmpOp::kLt,
                Value::Int(cutoff)),
        PredCmp(t_lineitem, Col(d, t_lineitem, "l_shipdate"), CmpOp::kGt,
                Value::Int(cutoff))};
    q->joins = {Join(t_customer, Col(d, t_customer, "c_custkey"), t_orders,
                     Col(d, t_orders, "o_custkey")),
                Join(t_orders, Col(d, t_orders, "o_orderkey"), t_lineitem,
                     Col(d, t_lineitem, "l_orderkey"))};
    q->group_by = {ColumnRef{t_orders, Col(d, t_orders, "o_orderdate")}};
    q->aggregates = {
        {AggFunc::kSum,
         ColumnRef{t_lineitem, Col(d, t_lineitem, "l_extendedprice")}}};
    q->order_by = {
        SortKey{ColumnRef{t_orders, Col(d, t_orders, "o_orderdate")}, false}};
    q->top_n = 10;
  });

  // Q6-shaped: forecasting revenue change (selective conjunctive scan —
  // the classic independence-assumption stress).
  AddInstances(&queries, "q06", k, [&](int, QuerySpec* q) {
    q->tables = {t_lineitem};
    const int64_t from = qrng.UniformInt(0, kDateSpan - 400);
    const double disc = qrng.Uniform(0.02, 0.07);
    q->predicates = {
        PredBetween(t_lineitem, Col(d, t_lineitem, "l_shipdate"),
                    Value::Int(from), Value::Int(from + 365)),
        PredBetween(t_lineitem, Col(d, t_lineitem, "l_discount"),
                    Value::Real(disc), Value::Real(disc + 0.02)),
        PredCmp(t_lineitem, Col(d, t_lineitem, "l_quantity"), CmpOp::kLt,
                Value::Int(qrng.UniformInt(20, 35)))};
    q->aggregates = {
        {AggFunc::kSum,
         ColumnRef{t_lineitem, Col(d, t_lineitem, "l_extendedprice")}}};
  });

  // Q14-shaped: promotion effect (narrow date window x part join).
  AddInstances(&queries, "q14", k, [&](int, QuerySpec* q) {
    q->tables = {t_lineitem, t_part};
    const int64_t from = qrng.UniformInt(0, kDateSpan - 60);
    q->predicates = {
        PredBetween(t_lineitem, Col(d, t_lineitem, "l_shipdate"),
                    Value::Int(from), Value::Int(from + 30))};
    q->joins = {Join(t_lineitem, Col(d, t_lineitem, "l_partkey"), t_part,
                     Col(d, t_part, "p_partkey"))};
    q->aggregates = {
        {AggFunc::kSum,
         ColumnRef{t_lineitem, Col(d, t_lineitem, "l_extendedprice")}}};
  });

  // Seek-friendly selections: a point lookup on orders and a narrow range
  // report on customers — the easy index wins a tuner must still find at
  // scale without regressing the scan-heavy families above.
  AddInstances(&queries, "qpt", k, [&](int, QuerySpec* q) {
    q->tables = {t_orders};
    q->predicates = {
        PredEq(t_orders, Col(d, t_orders, "o_custkey"),
               Value::Int(qrng.UniformInt(
                   0, static_cast<int64_t>(n_customer) - 1)))};
    q->select_columns = {
        ColumnRef{t_orders, Col(d, t_orders, "o_orderdate")},
        ColumnRef{t_orders, Col(d, t_orders, "o_totalprice")}};
    q->order_by = {
        SortKey{ColumnRef{t_orders, Col(d, t_orders, "o_orderdate")}, true}};
  });
  AddInstances(&queries, "qrg", k, [&](int, QuerySpec* q) {
    q->tables = {t_customer};
    const double lo = qrng.Uniform(-500, 8000);
    q->predicates = {PredBetween(t_customer,
                                 Col(d, t_customer, "c_acctbal"),
                                 Value::Real(lo), Value::Real(lo + 400))};
    q->select_columns = {
        ColumnRef{t_customer, Col(d, t_customer, "c_custkey")},
        ColumnRef{t_customer, Col(d, t_customer, "c_acctbal")}};
    q->order_by = {
        SortKey{ColumnRef{t_customer, Col(d, t_customer, "c_acctbal")},
                false}};
    q->top_n = 50;
  });

  return bdb;
}

}  // namespace aimai
