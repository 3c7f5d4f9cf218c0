#include "workloads/collection.h"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "common/check.h"
#include "common/thread_pool.h"
#include "tuner/query_tuner.h"
#include "workloads/customer.h"
#include "workloads/tpcds_like.h"
#include "workloads/tpch_like.h"

namespace aimai {

std::vector<std::unique_ptr<BenchmarkDatabase>> BuildBenchmarkSuite(
    uint64_t seed, int scale_divisor) {
  AIMAI_CHECK(scale_divisor >= 1);
  std::vector<std::unique_ptr<BenchmarkDatabase>> suite;
  const int s10 = std::max(1, 4 / scale_divisor);
  const int s100 = std::max(2, 12 / scale_divisor);

  suite.push_back(BuildTpchLike("tpch_zipf_10", s10, 0.9, seed + 1));
  suite.push_back(BuildTpchLike("tpch_zipf_100", s100, 0.9, seed + 2));
  suite.push_back(
      BuildTpcdsLike("tpcds_10", s10, 0.8, /*with_columnstore=*/false,
                     seed + 3));
  suite.push_back(
      BuildTpcdsLike("tpcds_100", s100, 0.8, /*with_columnstore=*/true,
                     seed + 4));
  for (int c = 1; c <= 11; ++c) {
    CustomerProfile prof = CustomerProfileFor(c);
    if (scale_divisor > 1) {
      prof.max_rows = std::max(prof.min_rows,
                               prof.max_rows /
                                   static_cast<size_t>(scale_divisor));
      prof.num_queries = std::max(6, prof.num_queries / scale_divisor);
    }
    suite.push_back(BuildCustomer("customer" + std::to_string(c), prof,
                                  seed + 10 + static_cast<uint64_t>(c)));
  }
  return suite;
}

std::vector<std::unique_ptr<BenchmarkDatabase>> BuildSmallSuite(
    uint64_t seed) {
  std::vector<std::unique_ptr<BenchmarkDatabase>> suite;
  suite.push_back(BuildTpchLike("tpch_small", 1, 0.9, seed + 1));
  suite.push_back(
      BuildTpcdsLike("tpcds_small", 1, 0.8, /*with_columnstore=*/false,
                     seed + 2));
  CustomerProfile prof = CustomerProfileFor(2);
  prof.max_rows = 6000;
  prof.num_queries = 8;
  suite.push_back(BuildCustomer("customer_small", prof, seed + 3));
  return suite;
}

void CollectExecutionData(BenchmarkDatabase* bdb, int database_id,
                          const CollectionOptions& options,
                          ExecutionDataRepository* repo) {
  Rng rng(options.seed ^ (static_cast<uint64_t>(database_id) << 20));
  TuningEnv env = bdb->MakeEnv(database_id);
  env.cost_samples = options.cost_samples;

  CandidateGenerator candidates(bdb->db(), bdb->stats());
  QueryLevelTuner::Options qopts;
  qopts.max_new_indexes = options.max_indexes_per_query;
  QueryLevelTuner tuner(bdb->db(), bdb->what_if(), &candidates, qopts);
  // Collection uses the plain optimizer-driven tuner (no ML, no threshold)
  // so training data reflects the configurations a tuner would explore.
  OptimizerComparator comparator(0.0, /*regression_threshold=*/1e9);

  const Configuration& base = bdb->initial_config();

  for (const QuerySpec& query : bdb->queries()) {
    const QueryTuningResult rec = tuner.Tune(query, base, comparator);

    // The index pool the tuner's search would touch: the recommendation
    // plus a few other syntactic candidates it considered and discarded.
    // Including non-recommended candidates matters — during a real search
    // most evaluated configurations are mediocre, and those are exactly
    // the plans whose costs the optimizer mispredicts in learnable ways.
    std::vector<IndexDef> pool = rec.new_indexes;
    {
      std::vector<IndexDef> all = candidates.Generate(query, base);
      rng.Shuffle(&all);
      std::set<std::string> in_pool;
      for (const IndexDef& def : pool) in_pool.insert(def.CanonicalName());
      for (IndexDef& def : all) {
        if (pool.size() >= rec.new_indexes.size() + 3) break;
        if (in_pool.insert(def.CanonicalName()).second) {
          pool.push_back(std::move(def));
        }
      }
    }

    // Enumerate configurations: the base config, the full recommendation,
    // and random subsets of the pool.
    std::vector<Configuration> configs;
    configs.push_back(base);
    if (!pool.empty()) {
      std::set<std::string> seen;
      seen.insert(base.Fingerprint());
      if (!rec.new_indexes.empty()) {
        Configuration full = base;
        for (const IndexDef& def : rec.new_indexes) full.Add(def);
        if (seen.insert(full.Fingerprint()).second) {
          configs.push_back(std::move(full));
        }
      }
      const size_t n_subsets =
          std::min<size_t>(static_cast<size_t>(options.configs_per_query),
                           1ULL << pool.size());
      int attempts = 0;
      while (configs.size() < n_subsets + 2 && attempts < 64) {
        ++attempts;
        Configuration sub = base;
        for (const IndexDef& def : pool) {
          if (rng.Bernoulli(0.4)) sub.Add(def);
        }
        if (seen.insert(sub.Fingerprint()).second) {
          configs.push_back(std::move(sub));
        }
      }
    }

    for (const Configuration& config : configs) {
      TuningEnv::Measurement m = env.ExecuteAndMeasure(query, config);
      env.Record(query, config, std::move(m), repo);
    }
  }
}

void CollectSuite(std::vector<std::unique_ptr<BenchmarkDatabase>>* suite,
                  const CollectionOptions& options,
                  ExecutionDataRepository* repo) {
  for (size_t i = 0; i < suite->size(); ++i) {
    CollectExecutionData((*suite)[i].get(), static_cast<int>(i), options,
                         repo);
  }
}

}  // namespace aimai
