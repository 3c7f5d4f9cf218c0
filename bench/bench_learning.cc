// Online learning loop: cost and payoff. Phase one pushes an identical
// continuous-tuning job stream through a service with learning disabled
// and one that harvests every measured iteration into the FeedbackStore
// (but never retrains) — the acceptance bar is harvest overhead < 2%
// (the median process-CPU ratio over alternating pairs of runs), with
// bit-identical recommendations. Phase two runs the full loop on a
// drifted tenant (offline model trained on a flat-distribution database,
// tenant tuning a skewed one), reports the background retrain's wall
// time and the adapted-vs-offline regression-class F1 on the tenant
// holdout, and fails when the adapted model is worse than the offline
// one it replaces. Emits
// machine-readable results to BENCH_learning.json (atomic write); exits
// non-zero when a bar is missed.
//
// Knobs: AIMAI_QUICK=1 shrinks the job stream; AIMAI_SEED=<n> reseeds;
// AIMAI_FULL=1 grows it.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "models/adaptive.h"
#include "report.h"
#include "service/learning/learning_loop.h"
#include "service/service.h"
#include "workloads/tpch_like.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

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

// One timed pass: continuous-tuning jobs for every tenant, submitted
// up-front and drained through the runner fleet. Databases are built
// fresh (same seeds) per pass — continuous jobs consume the env's
// measurement-noise RNG, so reusing a database across passes would make
// the streams diverge for reasons that have nothing to do with learning.
AbRun RunStream(const LearningOptions* learning, int sessions,
                uint64_t seed, std::shared_ptr<const Classifier> offline,
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

  AbRun result;
  const double wall0 = NowMs();
  const double cpu0 = CpuMs();
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
  result.cpu_ms = CpuMs() - cpu0;
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

  const PairFeaturizer fz = DefaultFeaturizer();
  std::fprintf(stderr, "training the shared offline model...\n");
  const std::shared_ptr<const Classifier> offline =
      TrainOffline(fz, opts.seed, quick);

  // --- Phase one: harvest overhead.
  const LearningOptions harvest_only = HarvestOnly();
  AbResult ab = MeasureOverhead(
      [&] {
        return RunStream(nullptr, sessions, opts.seed, offline, fz,
                         queries_per_session, iterations);
      },
      [&] {
        return RunStream(&harvest_only, sessions, opts.seed, offline, fz,
                         queries_per_session, iterations);
      });

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
  bool adapt_done = true;
  for (size_t q = 0;
       q < tenant_db->queries().size() &&
       q < static_cast<size_t>(queries_per_session) + 2;
       ++q) {
    auto job = session->TuneContinuous(tenant_db->queries()[q], {}).value();
    job->Wait();
    if (job->phase() != JobPhase::kDone) adapt_done = false;
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

  ab.all_done = ab.all_done && adapt_done;
  const bool retrained = stats.retrains_completed >= 1;
  const bool f1_ok =
      retrained && stats.last_adapted_f1 >= stats.last_offline_f1;

  const int jobs = sessions * queries_per_session;
  std::printf("%-22s %8s %10s %10s %10s\n", "config", "jobs", "wall_ms",
              "overhead%", "identical");
  std::printf("%-22s %8d %10.1f %10s %10s\n", "baseline", jobs,
              ab.baseline_ms, "-", "-");
  std::printf("%-22s %8d %10.1f %9.2f%% %10s\n", "harvesting", jobs,
              ab.variant_ms, ab.overhead_pct, ab.identical ? "yes" : "NO");
  std::printf(
      "adaptation: %lld rows harvested, %lld retrains, %lld publishes\n",
      static_cast<long long>(stats.rows_harvested),
      static_cast<long long>(stats.retrains_completed),
      static_cast<long long>(stats.publishes));
  std::printf("retrain (train n=%zu): %.1f ms\n", train.n(), retrain_ms);
  std::printf("holdout (n=%zu) regression F1: offline %.3f, adapted %.3f\n",
              holdout.n(), stats.last_offline_f1, stats.last_adapted_f1);

  Report("learning")
      .Int("sessions", sessions)
      .Int("queries_per_session", queries_per_session)
      .Int("repeats", kOverheadPairs)
      .Num("baseline_ms", ab.baseline_ms, 1)
      .Num("harvesting_ms", ab.variant_ms, 1)
      .Num("overhead_pct", ab.overhead_pct, 2)
      .Num("overhead_bar_pct", kOverheadBarPct, 1)
      .Bool("identical", ab.identical)
      .Int("rows_harvested", stats.rows_harvested)
      .Int("retrains_completed", stats.retrains_completed)
      .Int("publishes", stats.publishes)
      .Num("retrain_ms", retrain_ms, 1)
      .Int("train_rows", static_cast<int64_t>(train.n()))
      .Int("holdout_rows", static_cast<int64_t>(holdout.n()))
      .Num("offline_f1", stats.last_offline_f1, 4)
      .Num("adapted_f1", stats.last_adapted_f1, 4)
      .Bool("all_done", ab.all_done)
      .Write();
  (void)adapted;

  if (!PassesOverheadGate(ab, "harvest")) return 1;
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
