#include "workloads/tpch_like.h"

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

}  // namespace

std::unique_ptr<BenchmarkDatabase> BuildTpchLike(const std::string& name,
                                                 int scale, double zipf_s,
                                                 uint64_t seed) {
  // scale multiplies fixed per-table row counts below; zero or negative
  // would silently build empty (or, via the size_t cast, absurdly huge)
  // tables. Fractional scale factors live in the tpch_sf family, which
  // takes a double SF (workloads/tpch_sf.h).
  AIMAI_CHECK_MSG(scale >= 1,
                  "BuildTpchLike: scale must be >= 1 (for fractional "
                  "scale factors use BuildTpchSf)");
  auto bdb = std::make_unique<BenchmarkDatabase>(name, seed ^ 0xfeed);
  Database* db = bdb->db();
  DataGenerator gen(Rng{seed});

  const size_t n_supplier = 60 * static_cast<size_t>(scale);
  const size_t n_customer = 150 * static_cast<size_t>(scale);
  const size_t n_part = 200 * static_cast<size_t>(scale);
  const size_t n_partsupp = 2 * n_part;
  const size_t n_orders = 750 * static_cast<size_t>(scale);
  const size_t n_lineitem = 4 * n_orders;

  // --- region ---
  auto region = std::make_unique<Table>("region");
  gen.FillSequentialInt(region->AddColumn("r_regionkey", DataType::kInt64), 5);
  gen.FillDictString(region->AddColumn("r_name", DataType::kString), 5, 5,
                     0.0, "reg");
  region->SealRows();
  const int t_region = db->AddTable(std::move(region));

  // --- nation ---
  auto nation = std::make_unique<Table>("nation");
  gen.FillSequentialInt(nation->AddColumn("n_nationkey", DataType::kInt64),
                        25);
  gen.FillForeignKey(nation->AddColumn("n_regionkey", DataType::kInt64), 25,
                     5, 0.0);
  gen.FillDictString(nation->AddColumn("n_name", DataType::kString), 25, 25,
                     0.0, "nat");
  nation->SealRows();
  const int t_nation = db->AddTable(std::move(nation));

  // --- supplier ---
  auto supplier = std::make_unique<Table>("supplier");
  gen.FillSequentialInt(supplier->AddColumn("s_suppkey", DataType::kInt64),
                        n_supplier);
  gen.FillForeignKey(supplier->AddColumn("s_nationkey", DataType::kInt64),
                     n_supplier, 25, zipf_s);
  gen.FillUniformDouble(supplier->AddColumn("s_acctbal", DataType::kDouble),
                        n_supplier, -999, 9999);
  supplier->SealRows();
  const int t_supplier = db->AddTable(std::move(supplier));

  // --- customer ---
  auto customer = std::make_unique<Table>("customer");
  Column* c_custkey = customer->AddColumn("c_custkey", DataType::kInt64);
  gen.FillSequentialInt(c_custkey, n_customer);
  gen.FillForeignKey(customer->AddColumn("c_nationkey", DataType::kInt64),
                     n_customer, 25, zipf_s);
  // Market segment is a bucket of the customer key: Zipf-skewed order
  // foreign keys concentrate on low keys, so one segment owns most of the
  // order volume while the optimizer assumes independence.
  gen.FillBucketCorrelatedDict(
      customer->AddColumn("c_mktsegment", DataType::kString), *c_custkey,
      n_customer, 5, zipf_s, 0.15, "seg");
  gen.FillUniformDouble(customer->AddColumn("c_acctbal", DataType::kDouble),
                        n_customer, -999, 9999);
  customer->SealRows();
  const int t_customer = db->AddTable(std::move(customer));

  // --- part ---
  auto part = std::make_unique<Table>("part");
  Column* p_partkey = part->AddColumn("p_partkey", DataType::kInt64);
  gen.FillSequentialInt(p_partkey, n_part);
  gen.FillBucketCorrelatedDict(part->AddColumn("p_brand", DataType::kString),
                               *p_partkey, n_part, 25, zipf_s, 0.2,
                               "brand");
  gen.FillDictString(part->AddColumn("p_type", DataType::kString), n_part, 30,
                     0.0, "type");
  gen.FillUniformInt(part->AddColumn("p_size", DataType::kInt64), n_part, 1,
                     50);
  gen.FillUniformDouble(part->AddColumn("p_retailprice", DataType::kDouble),
                        n_part, 900, 2100);
  part->SealRows();
  const int t_part = db->AddTable(std::move(part));

  // --- partsupp ---
  auto partsupp = std::make_unique<Table>("partsupp");
  gen.FillForeignKey(partsupp->AddColumn("ps_partkey", DataType::kInt64),
                     n_partsupp, static_cast<int64_t>(n_part), zipf_s);
  gen.FillForeignKey(partsupp->AddColumn("ps_suppkey", DataType::kInt64),
                     n_partsupp, static_cast<int64_t>(n_supplier), 0.0);
  gen.FillUniformDouble(
      partsupp->AddColumn("ps_supplycost", DataType::kDouble), n_partsupp, 1,
      1000);
  gen.FillUniformInt(partsupp->AddColumn("ps_availqty", DataType::kInt64),
                     n_partsupp, 1, 9999);
  partsupp->SealRows();
  const int t_partsupp = db->AddTable(std::move(partsupp));

  // --- orders ---
  auto orders = std::make_unique<Table>("orders");
  gen.FillSequentialInt(orders->AddColumn("o_orderkey", DataType::kInt64),
                        n_orders);
  gen.FillForeignKey(orders->AddColumn("o_custkey", DataType::kInt64),
                     n_orders, static_cast<int64_t>(n_customer), zipf_s);
  gen.FillDateInt(orders->AddColumn("o_orderdate", DataType::kInt64),
                  n_orders, 0, 2400);
  gen.FillUniformDouble(orders->AddColumn("o_totalprice", DataType::kDouble),
                        n_orders, 900, 500000);
  gen.FillDictString(orders->AddColumn("o_orderpriority", DataType::kString),
                     n_orders, 5, zipf_s, "prio");
  orders->SealRows();
  const int t_orders = db->AddTable(std::move(orders));

  // --- lineitem ---
  auto lineitem = std::make_unique<Table>("lineitem");
  gen.FillForeignKey(lineitem->AddColumn("l_orderkey", DataType::kInt64),
                     n_lineitem, static_cast<int64_t>(n_orders), zipf_s);
  gen.FillForeignKey(lineitem->AddColumn("l_partkey", DataType::kInt64),
                     n_lineitem, static_cast<int64_t>(n_part), zipf_s);
  gen.FillForeignKey(lineitem->AddColumn("l_suppkey", DataType::kInt64),
                     n_lineitem, static_cast<int64_t>(n_supplier), 0.0);
  Column* l_quantity = lineitem->AddColumn("l_quantity", DataType::kInt64);
  gen.FillUniformInt(l_quantity, n_lineitem, 1, 50);
  // Price correlates with quantity: breaks the independence assumption.
  gen.FillCorrelatedInt(
      lineitem->AddColumn("l_extendedprice", DataType::kInt64), *l_quantity,
      n_lineitem, 1000.0, 5000);
  gen.FillUniformDouble(lineitem->AddColumn("l_discount", DataType::kDouble),
                        n_lineitem, 0.0, 0.1);
  gen.FillDateInt(lineitem->AddColumn("l_shipdate", DataType::kInt64),
                  n_lineitem, 0, 2500);
  // Return flag correlates with the order-key bucket (old orders were
  // returned more), another independence-assumption trap.
  gen.FillBucketCorrelatedDict(
      lineitem->AddColumn("l_returnflag", DataType::kString),
      *lineitem->mutable_column(
          static_cast<size_t>(lineitem->ColumnIndex("l_orderkey"))),
      n_lineitem, 3, zipf_s, 0.25, "rf");
  gen.FillDictString(lineitem->AddColumn("l_shipmode", DataType::kString),
                     n_lineitem, 7, zipf_s, "mode");
  lineitem->SealRows();
  const int t_lineitem = db->AddTable(std::move(lineitem));

  bdb->FinishLoading();

  // ---- Query templates ----
  Rng qrng(seed ^ 0x9111u);
  std::vector<QuerySpec>& queries = bdb->queries();
  const Database& d = *db;

  // Parameters are frequency-weighted (drawn from rows) most of the time,
  // mirroring how applications parameterize queries from their own data.
  auto param_value = [&](int t, const char* col, Rng* r) {
    if (r->Bernoulli(0.65)) {
      return RowValue(d, t, Col(d, t, col), r);
    }
    return DictValue(d, t, Col(d, t, col), r);
  };
  auto seg_value = [&](Rng* r) {
    return param_value(t_customer, "c_mktsegment", r);
  };
  auto brand_value = [&](Rng* r) { return param_value(t_part, "p_brand", r); };
  auto rf_value = [&](Rng* r) {
    return param_value(t_lineitem, "l_returnflag", r);
  };

  // Q1-like: pricing summary over recent lineitems.
  AddInstances(&queries, "q01", 2, [&](int, QuerySpec* q) {
    q->tables = {t_lineitem};
    const int shipdate = Col(d, t_lineitem, "l_shipdate");
    q->predicates = {PredCmp(t_lineitem, shipdate, CmpOp::kLe,
                             Value::Int(qrng.UniformInt(1800, 2450)))};
    q->group_by = {ColumnRef{t_lineitem, Col(d, t_lineitem, "l_returnflag")}};
    q->aggregates = {
        {AggFunc::kSum, ColumnRef{t_lineitem,
                                  Col(d, t_lineitem, "l_extendedprice")}},
        {AggFunc::kAvg, ColumnRef{t_lineitem,
                                  Col(d, t_lineitem, "l_quantity")}},
        {AggFunc::kCount, ColumnRef{}}};
    q->order_by = {
        SortKey{ColumnRef{t_lineitem, Col(d, t_lineitem, "l_returnflag")},
                true}};
  });

  // Q3-like: shipping priority.
  AddInstances(&queries, "q03", 3, [&](int, QuerySpec* q) {
    q->tables = {t_customer, t_orders, t_lineitem};
    const int64_t cutoff = qrng.UniformInt(800, 1800);
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

  // Q5-like: local supplier volume (6-way join).
  AddInstances(&queries, "q05", 2, [&](int, QuerySpec* q) {
    q->tables = {t_region, t_nation, t_customer, t_orders, t_lineitem,
                 t_supplier};
    const int64_t from = qrng.UniformInt(0, 1600);
    const Column& rn = d.table(t_region).column(
        static_cast<size_t>(Col(d, t_region, "r_name")));
    q->predicates = {
        PredEq(t_region, Col(d, t_region, "r_name"),
               Value::Str(rn.dictionary()[qrng.Index(rn.dictionary().size())])),
        PredBetween(t_orders, Col(d, t_orders, "o_orderdate"),
                    Value::Int(from), Value::Int(from + 500))};
    q->joins = {
        Join(t_region, Col(d, t_region, "r_regionkey"), t_nation,
             Col(d, t_nation, "n_regionkey")),
        Join(t_nation, Col(d, t_nation, "n_nationkey"), t_customer,
             Col(d, t_customer, "c_nationkey")),
        Join(t_customer, Col(d, t_customer, "c_custkey"), t_orders,
             Col(d, t_orders, "o_custkey")),
        Join(t_orders, Col(d, t_orders, "o_orderkey"), t_lineitem,
             Col(d, t_lineitem, "l_orderkey")),
        Join(t_lineitem, Col(d, t_lineitem, "l_suppkey"), t_supplier,
             Col(d, t_supplier, "s_suppkey"))};
    q->group_by = {ColumnRef{t_nation, Col(d, t_nation, "n_name")}};
    q->aggregates = {
        {AggFunc::kSum,
         ColumnRef{t_lineitem, Col(d, t_lineitem, "l_extendedprice")}}};
    q->order_by = {
        SortKey{ColumnRef{t_nation, Col(d, t_nation, "n_name")}, true}};
  });

  // Q6-like: forecasting revenue change (selective scalar aggregate).
  AddInstances(&queries, "q06", 2, [&](int, QuerySpec* q) {
    q->tables = {t_lineitem};
    const int64_t from = qrng.UniformInt(0, 2000);
    q->predicates = {
        PredBetween(t_lineitem, Col(d, t_lineitem, "l_shipdate"),
                    Value::Int(from), Value::Int(from + 365)),
        PredCmp(t_lineitem, Col(d, t_lineitem, "l_quantity"), CmpOp::kLt,
                Value::Int(qrng.UniformInt(10, 30))),
        PredBetween(t_lineitem, Col(d, t_lineitem, "l_discount"),
                    Value::Real(0.02), Value::Real(0.07))};
    q->aggregates = {
        {AggFunc::kSum,
         ColumnRef{t_lineitem, Col(d, t_lineitem, "l_extendedprice")}}};
  });

  // Q10-like: returned items (4-way join, TOP).
  AddInstances(&queries, "q10", 3, [&](int, QuerySpec* q) {
    q->tables = {t_customer, t_orders, t_lineitem, t_nation};
    const int64_t from = qrng.UniformInt(0, 2100);
    q->predicates = {
        PredBetween(t_orders, Col(d, t_orders, "o_orderdate"),
                    Value::Int(from), Value::Int(from + 200)),
        PredEq(t_lineitem, Col(d, t_lineitem, "l_returnflag"),
               rf_value(&qrng))};
    q->joins = {Join(t_customer, Col(d, t_customer, "c_custkey"), t_orders,
                     Col(d, t_orders, "o_custkey")),
                Join(t_orders, Col(d, t_orders, "o_orderkey"), t_lineitem,
                     Col(d, t_lineitem, "l_orderkey")),
                Join(t_customer, Col(d, t_customer, "c_nationkey"), t_nation,
                     Col(d, t_nation, "n_nationkey"))};
    q->group_by = {ColumnRef{t_customer, Col(d, t_customer, "c_custkey")}};
    q->aggregates = {
        {AggFunc::kSum,
         ColumnRef{t_lineitem, Col(d, t_lineitem, "l_extendedprice")}}};
    q->order_by = {
        SortKey{ColumnRef{t_customer, Col(d, t_customer, "c_custkey")},
                false}};
    q->top_n = 20;
  });

  // Q12-like: shipping modes vs priority.
  AddInstances(&queries, "q12", 3, [&](int, QuerySpec* q) {
    q->tables = {t_orders, t_lineitem};
    const int64_t from = qrng.UniformInt(0, 2100);
    q->predicates = {PredBetween(t_lineitem,
                                 Col(d, t_lineitem, "l_shipdate"),
                                 Value::Int(from), Value::Int(from + 365))};
    q->joins = {Join(t_orders, Col(d, t_orders, "o_orderkey"), t_lineitem,
                     Col(d, t_lineitem, "l_orderkey"))};
    q->group_by = {ColumnRef{t_lineitem, Col(d, t_lineitem, "l_shipmode")}};
    q->aggregates = {{AggFunc::kCount, ColumnRef{}}};
    q->order_by = {
        SortKey{ColumnRef{t_lineitem, Col(d, t_lineitem, "l_shipmode")},
                true}};
  });

  // Q14-like: promotion effect (lineitem x part).
  AddInstances(&queries, "q14", 2, [&](int, QuerySpec* q) {
    q->tables = {t_lineitem, t_part};
    const int64_t from = qrng.UniformInt(0, 2300);
    q->predicates = {PredBetween(t_lineitem,
                                 Col(d, t_lineitem, "l_shipdate"),
                                 Value::Int(from), Value::Int(from + 30))};
    q->joins = {Join(t_lineitem, Col(d, t_lineitem, "l_partkey"), t_part,
                     Col(d, t_part, "p_partkey"))};
    q->aggregates = {
        {AggFunc::kSum,
         ColumnRef{t_lineitem, Col(d, t_lineitem, "l_extendedprice")}}};
  });

  // Q17-like: small-quantity-order revenue (brand point + range).
  AddInstances(&queries, "q17", 3, [&](int, QuerySpec* q) {
    q->tables = {t_lineitem, t_part};
    q->predicates = {
        PredEq(t_part, Col(d, t_part, "p_brand"), brand_value(&qrng)),
        PredCmp(t_lineitem, Col(d, t_lineitem, "l_quantity"), CmpOp::kLt,
                Value::Int(qrng.UniformInt(5, 15)))};
    q->joins = {Join(t_lineitem, Col(d, t_lineitem, "l_partkey"), t_part,
                     Col(d, t_part, "p_partkey"))};
    q->aggregates = {
        {AggFunc::kAvg,
         ColumnRef{t_lineitem, Col(d, t_lineitem, "l_extendedprice")}}};
  });

  // Q19-like: discounted revenue (multi-attribute part filter).
  AddInstances(&queries, "q19", 3, [&](int, QuerySpec* q) {
    q->tables = {t_lineitem, t_part};
    const int64_t size_lo = qrng.UniformInt(1, 30);
    q->predicates = {
        PredEq(t_part, Col(d, t_part, "p_brand"), brand_value(&qrng)),
        PredBetween(t_part, Col(d, t_part, "p_size"), Value::Int(size_lo),
                    Value::Int(size_lo + 10)),
        PredBetween(t_lineitem, Col(d, t_lineitem, "l_quantity"),
                    Value::Int(10), Value::Int(30))};
    q->joins = {Join(t_lineitem, Col(d, t_lineitem, "l_partkey"), t_part,
                     Col(d, t_part, "p_partkey"))};
    q->aggregates = {
        {AggFunc::kSum,
         ColumnRef{t_lineitem, Col(d, t_lineitem, "l_extendedprice")}}};
  });

  // Q11-like: important stock (partsupp x supplier x nation).
  AddInstances(&queries, "q11", 2, [&](int, QuerySpec* q) {
    q->tables = {t_partsupp, t_supplier, t_nation};
    q->predicates = {PredEq(t_nation, Col(d, t_nation, "n_nationkey"),
                            Value::Int(qrng.UniformInt(0, 24)))};
    q->joins = {Join(t_partsupp, Col(d, t_partsupp, "ps_suppkey"),
                     t_supplier, Col(d, t_supplier, "s_suppkey")),
                Join(t_supplier, Col(d, t_supplier, "s_nationkey"), t_nation,
                     Col(d, t_nation, "n_nationkey"))};
    q->group_by = {ColumnRef{t_partsupp, Col(d, t_partsupp, "ps_partkey")}};
    q->aggregates = {
        {AggFunc::kSum,
         ColumnRef{t_partsupp, Col(d, t_partsupp, "ps_supplycost")}}};
  });

  // Correlated-band query: quantity and extended price move together, so
  // the optimizer's independence assumption underestimates the conjunction
  // by roughly the quantity band's selectivity.
  AddInstances(&queries, "qcorr", 3, [&](int, QuerySpec* q) {
    q->tables = {t_lineitem, t_orders};
    const int64_t q0 = qrng.UniformInt(5, 45);
    q->predicates = {
        PredBetween(t_lineitem, Col(d, t_lineitem, "l_quantity"),
                    Value::Int(q0), Value::Int(q0 + 8)),
        PredBetween(t_lineitem, Col(d, t_lineitem, "l_extendedprice"),
                    Value::Int(1000 * q0 - 6000),
                    Value::Int(1000 * (q0 + 8) + 6000))};
    q->joins = {Join(t_lineitem, Col(d, t_lineitem, "l_orderkey"), t_orders,
                     Col(d, t_orders, "o_orderkey"))};
    q->group_by = {ColumnRef{t_lineitem, Col(d, t_lineitem, "l_shipmode")}};
    q->aggregates = {
        {AggFunc::kSum,
         ColumnRef{t_lineitem, Col(d, t_lineitem, "l_extendedprice")}},
        {AggFunc::kCount, ColumnRef{}}};
  });

  // Point lookup on orders (seek-friendly).
  AddInstances(&queries, "qpt", 2, [&](int, QuerySpec* q) {
    q->tables = {t_orders};
    q->predicates = {
        PredEq(t_orders, Col(d, t_orders, "o_custkey"),
               Value::Int(qrng.UniformInt(0,
                                          static_cast<int64_t>(n_customer) -
                                              1)))};
    q->select_columns = {
        ColumnRef{t_orders, Col(d, t_orders, "o_orderdate")},
        ColumnRef{t_orders, Col(d, t_orders, "o_totalprice")}};
    q->order_by = {
        SortKey{ColumnRef{t_orders, Col(d, t_orders, "o_orderdate")}, true}};
  });

  // Range report on customers.
  AddInstances(&queries, "qrg", 2, [&](int, QuerySpec* q) {
    q->tables = {t_customer};
    const double lo = qrng.Uniform(-500, 8000);
    q->predicates = {PredBetween(t_customer,
                                 Col(d, t_customer, "c_acctbal"),
                                 Value::Real(lo), Value::Real(lo + 800))};
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
