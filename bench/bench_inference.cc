// Inference fast path: ns/row for every classifier family along three
// paths — the legacy node-chasing / allocating scalar path, the
// zero-allocation scalar primitive (PredictProbaInto), and the batched
// entry point (PredictBatch over compiled SoA forests or blocked matrix
// passes) — plus the end-to-end effect on tuning wall time of
// ModelComparator's batched Prime path. Bit-identity between paths is
// verified on the fly; diverging outputs fail the run.
//
// Acceptance bars (nonzero exit on failure):
//   - RF and GBT batched predict >= 3x over the legacy scalar path on a
//     >= 1k-row batch;
//   - scalar and batched tuning produce identical recommendations.
//
// Emits machine-readable results to BENCH_inference.json (ns/row per
// model and path, speedups, tuning wall times) in the working directory.
//
// Knobs: AIMAI_QUICK=1 shrinks the batch and repeats; AIMAI_SEED=<n>.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "harness.h"
#include "ml/gbt.h"
#include "ml/hist_gbt.h"
#include "ml/logistic_regression.h"
#include "ml/neural_net.h"
#include "ml/random_forest.h"
#include "robustness/atomic_file.h"
#include "tuner/comparator.h"
#include "tuner/workload_tuner.h"
#include "workloads/tpch_like.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

struct PathTimes {
  std::string name;
  double scalar_ns = 0;       // Legacy path (node-chasing / allocating).
  double fast_scalar_ns = 0;  // PredictProbaInto, zero-alloc.
  double batch_ns = 0;        // PredictBatch.
  double speedup() const { return scalar_ns / batch_ns; }
};

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One wall-time measurement of `fn` over the whole batch, in ns/row.
template <typename Fn>
double OneNsPerRow(size_t rows, const Fn& fn) {
  const double t0 = NowMs();
  fn();
  return (NowMs() - t0) * 1e6 / static_cast<double>(rows);
}

/// Exact comparison of the batched output against the zero-alloc scalar
/// primitive — the fast path's contract is bit-identity, not closeness.
bool BatchMatchesScalar(const Classifier& model, const double* rows, size_t n,
                        size_t dim, const std::vector<double>& batch_out) {
  const size_t k = static_cast<size_t>(model.num_classes());
  std::vector<double> one(k);
  for (size_t i = 0; i < n; ++i) {
    model.PredictProbaInto(rows + i * dim, one.data());
    for (size_t c = 0; c < k; ++c) {
      if (one[c] != batch_out[i * k + c]) return false;
    }
  }
  return true;
}

/// Times the three inference paths for one model. `legacy` runs the
/// pre-compilation path for row i (node-chasing scalar for the tree
/// ensembles, the allocating wrapper for LR / the DNN).
template <typename LegacyFn>
PathTimes TimeModel(const std::string& name, const Classifier& model,
                    const std::vector<double>& rows, size_t n, size_t dim,
                    int repeats, const LegacyFn& legacy, bool* identical) {
  PathTimes t;
  t.name = name;
  const size_t k = static_cast<size_t>(model.num_classes());
  std::vector<double> out(n * k);

  // The three paths are measured back-to-back within each round (and the
  // best round wins) so a noisy-neighbour burst on a shared machine hits
  // all of them, not just whichever path happened to run during it.
  for (int rep = 0; rep < repeats; ++rep) {
    const double scalar = OneNsPerRow(n, [&] {
      for (size_t i = 0; i < n; ++i) legacy(rows.data() + i * dim);
    });
    const double fast_scalar = OneNsPerRow(n, [&] {
      for (size_t i = 0; i < n; ++i) {
        model.PredictProbaInto(rows.data() + i * dim, out.data() + i * k);
      }
    });
    const double batch = OneNsPerRow(
        n, [&] { model.PredictBatch(rows.data(), n, dim, out.data()); });
    if (rep == 0 || scalar < t.scalar_ns) t.scalar_ns = scalar;
    if (rep == 0 || fast_scalar < t.fast_scalar_ns) {
      t.fast_scalar_ns = fast_scalar;
    }
    if (rep == 0 || batch < t.batch_ns) t.batch_ns = batch;
  }
  *identical =
      *identical && BatchMatchesScalar(model, rows.data(), n, dim, out);
  return t;
}

double TimeTuneMs(BenchmarkDatabase* bdb, const std::vector<WorkloadQuery>& wl,
                  const CostComparator& cmp, int threads,
                  std::string* fingerprint) {
  // A fresh optimizer per run: both comparators pay the same cold what-if
  // cache, so the comparison isolates comparator inference.
  WhatIfOptimizer what_if(bdb->db(), bdb->stats());
  CandidateGenerator gen(bdb->db(), bdb->stats());
  ThreadPool pool(threads);
  WorkloadLevelTuner::Options o;
  o.pool = &pool;
  WorkloadLevelTuner tuner(bdb->db(), &what_if, &gen, o);
  const double t0 = NowMs();
  const WorkloadTuningResult r = tuner.Tune(wl, bdb->initial_config(), cmp);
  const double ms = NowMs() - t0;
  *fingerprint = r.recommended.Fingerprint();
  return ms;
}

void WriteJson(const std::vector<PathTimes>& times, size_t batch_rows,
               double tune_scalar_ms, double tune_batched_ms,
               bool tune_match) {
  std::string json =
      StrFormat("{\n  \"batch_rows\": %zu,\n  \"models\": {\n", batch_rows);
  for (size_t i = 0; i < times.size(); ++i) {
    const PathTimes& t = times[i];
    json += StrFormat(
        "    \"%s\": {\"scalar_ns_per_row\": %.1f, "
        "\"fast_scalar_ns_per_row\": %.1f, "
        "\"batch_ns_per_row\": %.1f, \"batch_speedup\": %.2f}%s\n",
        t.name.c_str(), t.scalar_ns, t.fast_scalar_ns, t.batch_ns,
        t.speedup(), i + 1 < times.size() ? "," : "");
  }
  json += StrFormat(
      "  },\n  \"tuning\": {\"scalar_ms\": %.1f, "
      "\"batched_ms\": %.1f, \"identical\": %s}\n}\n",
      tune_scalar_ms, tune_batched_ms, tune_match ? "true" : "false");
  // Atomic replace: a crash (or a concurrent reader) never sees a torn
  // results file — it holds the previous run or the complete new one.
  const Status wrote = WriteFileAtomic("BENCH_inference.json", json);
  if (!wrote.ok()) {
    std::fprintf(stderr, "warning: %s\n", wrote.ToString().c_str());
  }
}

}  // namespace

int main() {
  const HarnessOptions opts = HarnessOptions::FromEnv();
  const bool quick = opts.scale_divisor > 2;
  const size_t kBatch = quick ? 1024 : 4096;
  const int repeats = opts.full ? 7 : (quick ? 3 : 5);

  // Training data: execution pairs from one TPC-H-like database, exactly
  // the features the tuner's comparator sees.
  auto bdb = BuildTpchLike("inf_bench", 2, 0.9, opts.seed);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 6;
  copts.seed = opts.seed + 1;
  CollectExecutionData(bdb.get(), 0, copts, &repo);
  Rng rng(opts.seed + 2);
  const auto pairs = repo.MakePairs(40, &rng);
  const PairFeaturizer featurizer = DefaultFeaturizer();
  PairDatasetBuilder builder(&repo, featurizer, PairLabeler(0.2));
  const Dataset data = builder.Build(pairs);
  const size_t dim = data.d();
  std::fprintf(stderr, "training on %zu pairs, %zu features\n", data.n(),
               dim);

  // The inference batch: dataset rows cycled up to kBatch.
  std::vector<double> rows(kBatch * dim);
  for (size_t i = 0; i < kBatch; ++i) {
    const double* src = data.Row(i % data.n());
    std::copy(src, src + dim, rows.begin() + static_cast<long>(i * dim));
  }

  // Model families with the hyper-parameters MakeClassifier ships
  // (concrete types: the legacy scalar entry points live on them).
  LogisticRegression::Options lro;
  lro.seed = opts.seed;
  LogisticRegression lr(lro);
  lr.Fit(data);
  RandomForest::Options rfo;
  rfo.num_trees = 80;
  rfo.seed = opts.seed;
  RandomForest rf(rfo);
  rf.Fit(data);
  GradientBoostedTrees::Options gbto;
  gbto.seed = opts.seed;
  GradientBoostedTrees gbt(gbto);
  gbt.Fit(data);
  HistGradientBoosting::Options lgo;
  lgo.seed = opts.seed;
  HistGradientBoosting lgbm(lgo);
  lgbm.Fit(data);
  NeuralNetClassifier::Options nno;
  nno.architecture = NeuralNetClassifier::Architecture::kPartialSkip;
  nno.groups = GroupsForFeaturizer(featurizer);
  nno.seed = opts.seed;
  if (quick) nno.epochs = 10;
  NeuralNetClassifier dnn(nno);
  dnn.Fit(data);

  bool identical = true;
  std::vector<PathTimes> times;
  times.push_back(TimeModel("LR", lr, rows, kBatch, dim, repeats,
                            [&](const double* x) { lr.PredictProba(x); },
                            &identical));
  times.push_back(TimeModel(
      "RF", rf, rows, kBatch, dim, repeats,
      [&](const double* x) { rf.PredictProbaScalar(x); }, &identical));
  times.push_back(TimeModel(
      "GBT", gbt, rows, kBatch, dim, repeats,
      [&](const double* x) { gbt.PredictProbaScalar(x); }, &identical));
  times.push_back(TimeModel(
      "LGBM", lgbm, rows, kBatch, dim, repeats,
      [&](const double* x) { lgbm.PredictProbaScalar(x); }, &identical));
  times.push_back(TimeModel("DNN", dnn, rows, kBatch, dim, repeats,
                            [&](const double* x) { dnn.PredictProba(x); },
                            &identical));

  std::vector<std::vector<std::string>> t1;
  t1.push_back({"model", "scalar ns/row", "zero-alloc ns/row",
                "batch ns/row", "batch speedup"});
  for (const PathTimes& t : times) {
    t1.push_back({t.name, F3(t.scalar_ns), F3(t.fast_scalar_ns),
                  F3(t.batch_ns), StrFormat("%.2fx", t.speedup())});
  }
  PrintTable(StrFormat("Single-row vs batched inference (%zu-row batch, "
                       "best of %d)",
                       kBatch, repeats),
             t1);

  // End-to-end: workload tuning with ModelComparator over the same trained
  // forest, unprimed (every label scalar) vs primed (one PredictBatch per
  // candidate round).
  struct UnprimedComparator : ModelComparator {
    using ModelComparator::ModelComparator;
    void Prime(const std::vector<PlanPairView>&, ThreadPool*) const override {}
  };
  auto shared_rf = std::make_shared<RandomForest>(rfo);
  shared_rf->Fit(data);
  const std::shared_ptr<const Classifier> model = shared_rf;

  std::vector<WorkloadQuery> wl;
  const size_t nq = quick ? 8 : bdb->queries().size();
  for (size_t i = 0; i < nq && i < bdb->queries().size(); ++i) {
    wl.push_back(WorkloadQuery{bdb->queries()[i], 1.0});
  }
  const int tune_threads = 4;
  std::string fp_scalar, fp_batched;
  double tune_scalar_ms = 0, tune_batched_ms = 0;
  const int tune_repeats = opts.full ? 3 : 2;
  for (int r = 0; r < tune_repeats; ++r) {
    // Fresh comparators per repeat: neither run starts with a warm memo.
    const UnprimedComparator scalar_cmp(model, featurizer);
    const ModelComparator batched_cmp(model, featurizer);
    const double a =
        TimeTuneMs(bdb.get(), wl, scalar_cmp, tune_threads, &fp_scalar);
    if (r == 0 || a < tune_scalar_ms) tune_scalar_ms = a;
    const double b =
        TimeTuneMs(bdb.get(), wl, batched_cmp, tune_threads, &fp_batched);
    if (r == 0 || b < tune_batched_ms) tune_batched_ms = b;
  }
  const bool tune_match = fp_scalar == fp_batched;

  std::vector<std::vector<std::string>> t2;
  t2.push_back({"comparator", "tune ms", "same result"});
  t2.push_back({"scalar (unprimed)", F3(tune_scalar_ms), "-"});
  t2.push_back({"batched (primed)", F3(tune_batched_ms),
                tune_match ? "yes" : "NO"});
  PrintTable(StrFormat("Workload tuning, RF comparator (%zu queries, "
                       "%d threads, best of %d)",
                       wl.size(), tune_threads, tune_repeats),
             t2);

  WriteJson(times, kBatch, tune_scalar_ms, tune_batched_ms, tune_match);

  bool ok = true;
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: batched probabilities diverged from the scalar "
                 "path\n");
    ok = false;
  }
  if (!tune_match) {
    std::fprintf(stderr,
                 "FAIL: batched tuning recommendation diverged from "
                 "scalar\n");
    ok = false;
  }
  for (const PathTimes& t : times) {
    if ((t.name == "RF" || t.name == "GBT") && t.speedup() < 3.0) {
      std::fprintf(stderr,
                   "FAIL: %s batched speedup was %.2fx (need >= 3x)\n",
                   t.name.c_str(), t.speedup());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
