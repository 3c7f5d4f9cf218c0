#ifndef AIMAI_WORKLOADS_COLLECTION_H_
#define AIMAI_WORKLOADS_COLLECTION_H_

#include <memory>
#include <vector>

#include "models/repository.h"
#include "workloads/workload.h"

namespace aimai {

/// Builds the fifteen-database evaluation suite (§7.2 / Table 2):
/// TPC-H-like at two scales with Zipf skew, TPC-DS-like at two scales
/// (the larger starting from columnstore), and eleven synthetic customer
/// databases. `scale_divisor` > 1 shrinks every database (for fast test
/// runs); the relative shape of the suite is preserved.
std::vector<std::unique_ptr<BenchmarkDatabase>> BuildBenchmarkSuite(
    uint64_t seed, int scale_divisor = 1);

/// A smaller suite (one of each family) for unit/integration tests.
std::vector<std::unique_ptr<BenchmarkDatabase>> BuildSmallSuite(
    uint64_t seed);

/// Execution-data collection (§7.3 protocol): for every query, obtain the
/// tuner's index recommendation (optimizer-driven, no ML), enumerate
/// random subsets of the recommended indexes as configurations, implement
/// and execute the query under each, and record the (plan, median cost)
/// observations into the repository.
struct CollectionOptions {
  int configs_per_query = 10;   // Index subsets implemented per query.
  int max_indexes_per_query = 4;
  int cost_samples = 5;
  uint64_t seed = 123;
};

void CollectExecutionData(BenchmarkDatabase* bdb, int database_id,
                          const CollectionOptions& options,
                          ExecutionDataRepository* repo);

/// Convenience: collect over a whole suite.
void CollectSuite(std::vector<std::unique_ptr<BenchmarkDatabase>>* suite,
                  const CollectionOptions& options,
                  ExecutionDataRepository* repo);

}  // namespace aimai

#endif  // AIMAI_WORKLOADS_COLLECTION_H_
