#ifndef AIMAI_BENCH_TUNING_COMMON_H_
#define AIMAI_BENCH_TUNING_COMMON_H_

// Shared machinery for the end-to-end tuning experiments (§7.9):
// the four methods — Opt, OptTr, AdaptiveDB, AdaptivePlan — wired into the
// ContinuousTuner, with passive data collection and per-iteration
// retraining of the adaptive (meta) model.

#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "models/adaptive.h"
#include "workloads/customer.h"
#include "workloads/tpcds_like.h"
#include "workloads/tpch_like.h"

namespace aimai::bench {

enum class TuningMethod { kOpt, kOptTr, kAdaptiveDb, kAdaptivePlan };

inline const char* TuningMethodName(TuningMethod m) {
  switch (m) {
    case TuningMethod::kOpt:
      return "Opt";
    case TuningMethod::kOptTr:
      return "OptTr";
    case TuningMethod::kAdaptiveDb:
      return "AdaptiveDB";
    case TuningMethod::kAdaptivePlan:
      return "AdaptivePlan";
  }
  return "?";
}

/// The three tuning workloads of §7.9 plus the cross-database data the
/// adaptive methods train their offline model on.
struct TuningSetup {
  // Offline execution data from *other* databases.
  std::vector<std::unique_ptr<BenchmarkDatabase>> offline_suite;
  ExecutionDataRepository offline_repo;
  Dataset offline_train;          // Featurized pairs of the offline repo.
  std::shared_ptr<RandomForest> offline_model;
  PairFeaturizer featurizer = DefaultFeaturizer();
  PairLabeler labeler{0.2};

  // The tuning targets.
  std::vector<std::unique_ptr<BenchmarkDatabase>> targets;
};

inline TuningSetup BuildTuningSetup(const HarnessOptions& options) {
  TuningSetup setup;
  const bool quick = std::getenv("AIMAI_QUICK") != nullptr &&
                     std::getenv("AIMAI_QUICK")[0] == '1';

  // Offline data: TPC-H-like + four customer databases (distinct from the
  // tuning targets below).
  setup.offline_suite.push_back(
      BuildTpchLike("off_tpch", options.full ? 8 : (quick ? 2 : 3), 0.9,
                    options.seed + 201));
  for (int c : quick ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 3, 5}) {
    CustomerProfile prof = CustomerProfileFor(c);
    if (!options.full) {
      prof.max_rows = std::max(prof.min_rows, prof.max_rows / 2);
    }
    setup.offline_suite.push_back(
        BuildCustomer("off_cust" + std::to_string(c), prof,
                      options.seed + 210 + static_cast<uint64_t>(c)));
  }
  CollectionOptions copts;
  copts.configs_per_query = options.configs_per_query;
  copts.seed = options.seed ^ 0x0ff1;
  CollectSuite(&setup.offline_suite, copts, &setup.offline_repo);

  Rng rng(options.seed ^ 0x0ff2);
  const std::vector<PlanPairRef> pairs =
      setup.offline_repo.MakePairs(options.max_pairs_per_query, &rng);
  PairDatasetBuilder builder(&setup.offline_repo, setup.featurizer,
                             setup.labeler);
  setup.offline_train = builder.Build(pairs);
  RandomForest::Options rf_opts;
  rf_opts.num_trees = 60;
  rf_opts.seed = options.seed ^ 0x0ff3;
  setup.offline_model = std::make_shared<RandomForest>(rf_opts);
  setup.offline_model->Fit(setup.offline_train);

  // Targets: TPC-DS 10g-like (no indexes), TPC-DS 100g-like (columnstore
  // C0), Customer6 (no indexes).
  setup.targets.push_back(BuildTpcdsLike(
      "tpcds10", options.full ? 4 : 2, 0.8, /*with_columnstore=*/false,
      options.seed + 301));
  setup.targets.push_back(BuildTpcdsLike(
      "tpcds100", options.full ? 12 : (quick ? 3 : 5), 0.8,
      /*with_columnstore=*/true, options.seed + 302));
  {
    CustomerProfile prof = CustomerProfileFor(6);
    if (!options.full) {
      prof.max_rows = quick ? 10000 : 20000;
      prof.num_queries = quick ? 10 : 16;
    }
    setup.targets.push_back(
        BuildCustomer("customer6", prof, options.seed + 303));
  }
  return setup;
}

/// Builds the per-iteration comparator factory for a method. For the
/// adaptive methods the factory retrains a meta-model strategy over the
/// offline model and the locally collected pairs of `local_repo` at every
/// call (i.e., every tuner invocation, §7.9).
inline ContinuousTuner::ComparatorFactory MakeComparatorFactory(
    TuningMethod method, TuningSetup* setup,
    ExecutionDataRepository* local_repo, uint64_t seed) {
  switch (method) {
    case TuningMethod::kOpt:
      return []() -> std::unique_ptr<CostComparator> {
        return std::make_unique<OptimizerComparator>(
            0.0, /*regression_threshold=*/0.2);
      };
    case TuningMethod::kOptTr:
      return []() -> std::unique_ptr<CostComparator> {
        return std::make_unique<OptimizerComparator>(
            /*improvement_threshold=*/0.2, /*regression_threshold=*/0.2);
      };
    case TuningMethod::kAdaptiveDb:
    case TuningMethod::kAdaptivePlan: {
      return [setup, local_repo, seed]() -> std::unique_ptr<CostComparator> {
        // Local pairs collected so far on the target database.
        Rng rng(seed ^ (local_repo->num_plans() * 2654435761ULL));
        const std::vector<PlanPairRef> local_pairs =
            local_repo->MakePairs(/*max_pairs_per_query=*/60, &rng);
        PairDatasetBuilder builder(local_repo, setup->featurizer,
                                   setup->labeler);

        std::shared_ptr<const Classifier> model = setup->offline_model;
        if (local_pairs.size() >= 8) {
          Dataset local = builder.Build(local_pairs);
          model = std::make_shared<MetaModelStrategy>(
              setup->offline_model, local, seed ^ 0xada);
        }
        return std::make_unique<ModelComparator>(std::move(model),
                                                 setup->featurizer);
      };
    }
  }
  return nullptr;
}

/// For AdaptivePlan, pre-seeds the local repository with execution data
/// collected from the target database before tuning begins ("split by
/// plan": the offline model sees some of this database's plans).
inline void PreseedLocalData(BenchmarkDatabase* bdb, int database_id,
                             const HarnessOptions& options,
                             ExecutionDataRepository* local_repo) {
  CollectionOptions copts;
  copts.configs_per_query = 4;
  copts.seed = options.seed ^ 0x5eed;
  CollectExecutionData(bdb, database_id, copts, local_repo);
}

/// Reconstructs, from a query trace, the measured cost after iteration k
/// (reverted configurations keep the previous cost).
inline std::vector<double> CostAfterEachIteration(
    const ContinuousTuner::QueryTrace& trace, int iterations) {
  std::vector<double> out;
  double current = trace.initial_cost;
  size_t next = 0;
  for (int it = 1; it <= iterations; ++it) {
    if (next < trace.iterations.size() &&
        trace.iterations[next].iteration == it) {
      if (!trace.iterations[next].regressed) {
        current = trace.iterations[next].measured_cost;
      }
      ++next;
    }
    out.push_back(current);
  }
  return out;
}

}  // namespace aimai::bench

#endif  // AIMAI_BENCH_TUNING_COMMON_H_
