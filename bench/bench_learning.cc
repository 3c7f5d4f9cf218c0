// Online learning loop: cost and payoff. Phase one pushes an identical
// continuous-tuning job stream through a service with learning disabled
// and one that harvests every measured iteration into the FeedbackStore
// (but never retrains) — the acceptance bar is harvest overhead < 2% on
// best-of-N wall time, with bit-identical recommendations. Phase two
// runs the full loop on a drifted tenant (offline model trained on a
// flat-distribution database, tenant tuning a skewed one), reports the
// background retrain's wall time and the adapted-vs-offline
// regression-class F1 on the tenant holdout, and fails when the adapted
// model is worse than the offline one it replaces. Emits
// machine-readable results to BENCH_learning.json (atomic write); exits
// non-zero when a bar is missed.
//
// Knobs: AIMAI_QUICK=1 shrinks the job stream; AIMAI_SEED=<n> reseeds;
// AIMAI_FULL=1 grows it.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "models/adaptive.h"
#include "robustness/atomic_file.h"
#include "service/learning/learning_loop.h"
#include "service/service.h"
#include "workloads/tpch_like.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string TraceKey(const ContinuousTuner::QueryTrace& t) {
  std::string key = t.final_config.Fingerprint();
  key += StrFormat("|%.17g|%.17g|%zu", t.initial_cost, t.final_cost,
                   t.iterations.size());
  return key;
}

// The shared offline model: trained on execution data from a
// flat-distribution database, i.e. NOT the distribution the tenants tune.
std::shared_ptr<const Classifier> TrainOffline(const PairFeaturizer& fz,
                                               uint64_t seed, bool quick) {
  auto db = BuildTpchLike("lbench_off", 1, 0.0, seed);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = quick ? 3 : 6;
  copts.seed = seed + 1;
  CollectExecutionData(db.get(), 0, copts, &repo);
  Rng rng(seed + 2);
  PairDatasetBuilder builder(&repo, fz, PairLabeler(0.2));
  const Dataset data = builder.Build(repo.MakePairs(quick ? 30 : 50, &rng));
  auto model = MakeClassifier(ModelKind::kRandomForest, fz, seed + 3);
  model->Fit(data);
  return std::shared_ptr<const Classifier>(std::move(model));
}

// Learning config that harvests everything but never triggers a retrain:
// isolates the pure per-iteration harvest cost.
LearningOptions HarvestOnly() {
  LearningOptions l;
  l.enabled = true;
  l.retrain_after = 0;          // No row-count trigger.
  l.drift.min_f1 = 0.0;         // Bars no window can cross:
  l.drift.max_miss_rate = 1.0;  // f1 >= 0 and miss_rate <= 1 always hold.
  return l;
}

// The full loop for the adaptation phase.
LearningOptions FullLoop() {
  LearningOptions l;
  l.enabled = true;
  l.feedback.holdout_every = 2;
  l.retrain_after = 4;
  l.min_train_rows = 2;
  l.min_holdout_rows = 1;
  l.gate.max_regression_miss_rate = 1.0;  // The F1 comparison is the gate.
  l.gate.min_accuracy = 0.0;
  return l;
}

struct RunResult {
  double wall_ms = 0;
  std::vector<std::string> keys;
  bool all_done = true;
};

// One timed pass: continuous-tuning jobs for every tenant, submitted
// up-front and drained through the runner fleet. Databases are built
// fresh (same seeds) per pass — continuous jobs consume the env's
// measurement-noise RNG, so reusing a database across passes would make
// the streams diverge for reasons that have nothing to do with learning.
RunResult RunStream(const LearningOptions* learning, int sessions,
                    uint64_t seed,
                    std::shared_ptr<const Classifier> offline,
                    const PairFeaturizer& fz, int queries_per_session,
                    int iterations) {
  std::vector<std::unique_ptr<BenchmarkDatabase>> dbs;
  for (int s = 0; s < sessions; ++s) {
    dbs.push_back(BuildTpchLike("lbench_" + std::to_string(s), 1, 0.9,
                                seed + 10 + static_cast<uint64_t>(s)));
  }
  ServiceOptions sopts{
      .job_runners = 4, .max_inflight_jobs = 4, .max_queued_jobs = 256};
  if (learning != nullptr) sopts.learning = *learning;
  auto service = std::move(TuningService::Create(sopts).value());
  service->models().Publish("offline", offline, fz);

  std::vector<Session*> handles;
  for (size_t s = 0; s < dbs.size(); ++s) {
    SessionOptions so;
    so.name = "tenant-" + std::to_string(s);
    so.env = dbs[s]->MakeEnv(static_cast<int>(s));
    so.comparator.regression_threshold = 0.2;
    so.iterations = iterations;
    so.model = "offline";
    handles.push_back(service->CreateSession(so).value());
  }

  RunResult result;
  const double wall0 = NowMs();
  std::vector<std::shared_ptr<TuningJob>> jobs;
  for (size_t s = 0; s < dbs.size(); ++s) {
    const auto& queries = dbs[s]->queries();
    const size_t n = std::min<size_t>(queries.size(),
                                      static_cast<size_t>(queries_per_session));
    for (size_t q = 0; q < n; ++q) {
      jobs.push_back(handles[s]->TuneContinuous(queries[q], {}).value());
    }
  }
  for (const auto& job : jobs) {
    job->Wait();
    if (job->phase() != JobPhase::kDone) result.all_done = false;
    result.keys.push_back(TraceKey(job->outputs().trace));
  }
  result.wall_ms = NowMs() - wall0;
  service->Shutdown();
  return result;
}

}  // namespace

int main() {
  const HarnessOptions opts = HarnessOptions::FromEnv();
  const bool quick = opts.scale_divisor > 2;
  const int sessions = 2;
  const int queries_per_session = quick ? 4 : 6;
  const int iterations = quick ? 6 : 8;
  const int repeats = quick ? 5 : 7;
  constexpr double kOverheadBarPct = 2.0;

  const PairFeaturizer fz = DefaultFeaturizer();
  std::fprintf(stderr, "training the shared offline model...\n");
  const std::shared_ptr<const Classifier> offline =
      TrainOffline(fz, opts.seed, quick);

  // --- Phase one: harvest overhead. Interleave the repeats so thermal /
  // background drift hits both configurations equally.
  const LearningOptions harvest_only = HarvestOnly();
  double best_base = 1e300;
  double best_learn = 1e300;
  bool identical = true;
  bool all_done = true;
  std::vector<std::string> reference_keys;
  for (int r = 0; r < repeats; ++r) {
    const RunResult base = RunStream(nullptr, sessions, opts.seed, offline,
                                     fz, queries_per_session, iterations);
    const RunResult learn =
        RunStream(&harvest_only, sessions, opts.seed, offline, fz,
                  queries_per_session, iterations);
    best_base = std::min(best_base, base.wall_ms);
    best_learn = std::min(best_learn, learn.wall_ms);
    all_done = all_done && base.all_done && learn.all_done;
    if (reference_keys.empty()) reference_keys = base.keys;
    identical = identical && base.keys == reference_keys &&
                learn.keys == reference_keys;
    std::fprintf(stderr, "repeat %d: baseline %.1f ms, harvesting %.1f ms\n",
                 r + 1, base.wall_ms, learn.wall_ms);
  }
  const double overhead_pct = 100.0 * (best_learn - best_base) / best_base;

  // --- Phase two: the full loop on one drifted tenant. The retrain runs
  // in the background; its wall time is measured standalone below on the
  // exact data the loop harvested.
  auto service = std::move(
      TuningService::Create({.job_runners = 2, .learning = FullLoop()})
          .value());
  service->models().Publish("offline", offline, fz);
  auto tenant_db = BuildTpchLike("lbench_adapt", 1, 0.9, opts.seed + 20);
  SessionOptions so;
  so.name = "tenant";
  so.env = tenant_db->MakeEnv(0);
  so.comparator.regression_threshold = 0.2;
  so.iterations = iterations;
  so.model = "offline";
  Session* session = service->CreateSession(so).value();
  for (size_t q = 0;
       q < tenant_db->queries().size() &&
       q < static_cast<size_t>(queries_per_session) + 2;
       ++q) {
    auto job = session->TuneContinuous(tenant_db->queries()[q], {}).value();
    job->Wait();
    if (job->phase() != JobPhase::kDone) all_done = false;
  }
  service->learning()->BarrierFor("tenant");
  const LearningLoop::TenantStats stats =
      service->learning()->StatsFor("tenant");

  // Standalone retrain timing on the harvested data (same strategy, same
  // seeding family as the background job).
  const Dataset train = service->learning()->feedback().TrainData("tenant");
  const Dataset holdout =
      service->learning()->feedback().HoldoutData("tenant");
  const auto snapshot = service->models().Snapshot("offline");
  const double t0 = NowMs();
  const auto adapted = std::make_shared<UncertaintyStrategy>(
      snapshot->classifier, train, opts.seed + 30);
  const double retrain_ms = NowMs() - t0;
  service->Shutdown();

  const bool retrained = stats.retrains_completed >= 1;
  const bool f1_ok =
      retrained && stats.last_adapted_f1 >= stats.last_offline_f1;

  const int jobs = sessions * queries_per_session;
  std::printf("%-22s %8s %10s %10s %10s\n", "config", "jobs", "wall_ms",
              "overhead%", "identical");
  std::printf("%-22s %8d %10.1f %10s %10s\n", "baseline", jobs, best_base,
              "-", "-");
  std::printf("%-22s %8d %10.1f %9.2f%% %10s\n", "harvesting", jobs,
              best_learn, overhead_pct, identical ? "yes" : "NO");
  std::printf(
      "adaptation: %lld rows harvested, %lld retrains, %lld publishes\n",
      static_cast<long long>(stats.rows_harvested),
      static_cast<long long>(stats.retrains_completed),
      static_cast<long long>(stats.publishes));
  std::printf("retrain (train n=%zu): %.1f ms\n", train.n(), retrain_ms);
  std::printf("holdout (n=%zu) regression F1: offline %.3f, adapted %.3f\n",
              holdout.n(), stats.last_offline_f1, stats.last_adapted_f1);

  std::string json = StrFormat(
      "{\n  \"sessions\": %d,\n  \"queries_per_session\": %d,\n"
      "  \"repeats\": %d,\n  \"baseline_ms\": %.1f,\n"
      "  \"harvesting_ms\": %.1f,\n  \"overhead_pct\": %.2f,\n"
      "  \"overhead_bar_pct\": %.1f,\n  \"identical\": %s,\n"
      "  \"rows_harvested\": %lld,\n  \"retrains_completed\": %lld,\n"
      "  \"publishes\": %lld,\n  \"retrain_ms\": %.1f,\n"
      "  \"train_rows\": %zu,\n  \"holdout_rows\": %zu,\n"
      "  \"offline_f1\": %.4f,\n  \"adapted_f1\": %.4f,\n"
      "  \"all_done\": %s\n}\n",
      sessions, queries_per_session, repeats, best_base, best_learn,
      overhead_pct, kOverheadBarPct, identical ? "true" : "false",
      static_cast<long long>(stats.rows_harvested),
      static_cast<long long>(stats.retrains_completed),
      static_cast<long long>(stats.publishes), retrain_ms, train.n(),
      holdout.n(), stats.last_offline_f1, stats.last_adapted_f1,
      all_done ? "true" : "false");
  const Status wrote = WriteFileAtomic("BENCH_learning.json", json);
  if (!wrote.ok()) {
    std::fprintf(stderr, "warning: %s\n", wrote.ToString().c_str());
  }
  (void)adapted;

  if (!all_done) {
    std::fprintf(stderr, "FAIL: not every job reached kDone\n");
    return 1;
  }
  if (!identical) {
    std::fprintf(stderr,
                 "FAIL: harvesting perturbed the tuning recommendations\n");
    return 1;
  }
  if (overhead_pct >= kOverheadBarPct) {
    std::fprintf(stderr, "FAIL: harvest overhead %.2f%% >= %.1f%% bar\n",
                 overhead_pct, kOverheadBarPct);
    return 1;
  }
  if (!retrained) {
    std::fprintf(stderr, "FAIL: the loop never completed a retrain\n");
    return 1;
  }
  if (!f1_ok) {
    std::fprintf(stderr,
                 "FAIL: adapted F1 %.4f below offline F1 %.4f on the tenant "
                 "holdout\n",
                 stats.last_adapted_f1, stats.last_offline_f1);
    return 1;
  }
  return 0;
}
