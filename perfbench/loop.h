#ifndef AIMAI_PERFBENCH_LOOP_H_
#define AIMAI_PERFBENCH_LOOP_H_

// One pass of the loop the system runs: set-up (databases + statistics),
// collect (the §7.3 protocol), learn (pairs -> features -> forest), tune
// (model-gated continuous tuning through TuningService) and serve (open-loop
// what-if jobs, see serve.h). Workloads differ only in the sizes of these
// stages, so every workload reports every metric.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ml/random_forest.h"
#include "models/repository.h"
#include "serve.h"
#include "workloads/query_stream.h"

namespace perfbench {

/// Stage sizes of one workload.
struct Preset {
  // Collect + learn: a tpch_sf database at `collect_sf`.
  double collect_sf = 0.05;
  int configs_per_query = 8;
  int cv_folds = 5;
  // Tune: `tune_tenants` tpcds databases, continuous tuning of every query.
  int tune_tenants = 2;
  int tune_iterations = 2;
  // Serve: see ServeConfig.
  ServeConfig serve;
  // Passes per untraced run: at least `min_passes`, more while --seconds
  // lasts, at most `max_passes`.
  int min_passes = 3;
  int max_passes = 6;
};

/// Per-layer measurements of a traced pass, in the names of the
/// `per_layer` metrics of BENCHMARK.json.
using LayerMap = std::map<std::string, double>;

/// What one pass produced.
struct PassResult {
  // End-to-end timings and quality.
  double setup_s = 0;
  double collect_s = 0;
  double train_s = 0;
  double model_f1 = 0;
  double tune_s = 0;
  // Geometric mean over tuned queries of final / initial measured cost.
  double tune_cost_ratio = 0;
  int64_t tune_regressions = 0;
  ServeResult serve;
  // Wall time of the stages that traced and untraced passes share.
  double wall_s = 0;
  // How fast the machine ran during the pass: the reference task's quiet
  // time over its time at the start of the pass (below 1 = slower).
  double speed = 1;
  // Share of machine CPU time the hypervisor stole during each stage.
  double steal_setup = 0, steal_collect = 0, steal_train = 0;
  double steal_tune = 0, steal_serve = 0;
  // Operations attempted / failed across all stages.
  int64_t attempted = 0;
  int64_t failed = 0;
  // Bit-identity digests.
  std::string repo_digest;
  std::string tune_digest;
  std::string serve_digest;
  std::string repo_bytes;  // SaveRepository output, for traced-vs-untraced.
  // Filled on traced passes only.
  LayerMap layers;
  // Human-readable failures of in-pass checks.
  std::vector<std::string> errors;
};

/// Runs one full pass. With `traced`, observability is on, the collect
/// stage drives the §7.3 protocol through public calls with per-layer
/// timers, and `layers` is filled.
PassResult RunPass(const Preset& preset, uint64_t seed, bool traced);

}  // namespace perfbench

#endif  // AIMAI_PERFBENCH_LOOP_H_
