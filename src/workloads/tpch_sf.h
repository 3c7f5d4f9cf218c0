#ifndef AIMAI_WORKLOADS_TPCH_SF_H_
#define AIMAI_WORKLOADS_TPCH_SF_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "workloads/workload.h"

namespace aimai {

/// Knobs for the TPC-H-scale workload family. Unlike the toy `tpch_like`
/// generator (fixed per-table row counts times an integer multiplier),
/// this family takes a *fractional* scale factor and drives the canonical
/// TPC-H cardinalities:
///
///   lineitem ~ SF x 6,000,000      orders   ~ SF x 1,500,000
///   partsupp ~ SF x   800,000      part     ~ SF x   200,000
///   customer ~ SF x   150,000      supplier ~ SF x    10,000
///   nation = 25, region = 5 (fixed)
///
/// so `sf = 0.01` is a ~60k-row lineitem smoke database and `sf = 1` is
/// the full TPC-H SF1 shape. Generation is deterministic and reproducible
/// from `seed`: every column is filled from its own `Rng::Split()` stream
/// scheduled by a `TableFillPlan`, so building with a thread pool is
/// bit-identical to building serially (same table ContentFingerprints).
struct TpchSfOptions {
  /// Fractional scale factor; must be in (0, 100]. 0.01 ~ 60k lineitem rows.
  double sf = 0.01;
  /// Base seed for data generation and query parameter substitution.
  uint64_t seed = 42;
  /// Query instances materialized per template family.
  int instances_per_family = 3;
  /// Pool for the per-column parallel fill; nullptr = serial build.
  /// Either way the produced data is bit-identical.
  ThreadPool* pool = nullptr;
};

/// Canonical per-SF base cardinalities (rows at SF = 1).
constexpr double kTpchSfLineitemBase = 6'000'000.0;
constexpr double kTpchSfOrdersBase = 1'500'000.0;
constexpr double kTpchSfPartsuppBase = 800'000.0;
constexpr double kTpchSfPartBase = 200'000.0;
constexpr double kTpchSfCustomerBase = 150'000.0;
constexpr double kTpchSfSupplierBase = 10'000.0;

/// Rows for one table at scale factor `sf` (never below 1).
size_t TpchSfRows(double sf, double base);

/// Builds the TPC-H-scale database plus template-parameterized query
/// families (Q1/Q3/Q6/Q14-shaped, and an index-friendly selection family)
/// with substitution parameters drawn per instance.
std::unique_ptr<BenchmarkDatabase> BuildTpchSf(const std::string& name,
                                               const TpchSfOptions& options);

}  // namespace aimai

#endif  // AIMAI_WORKLOADS_TPCH_SF_H_
