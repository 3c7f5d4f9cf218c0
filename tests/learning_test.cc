// Online learning loop tests: feedback-store bounds/eviction/namespacing,
// drift detection and its trigger cooldown, comparator decision sinks,
// per-tenant registry drift windows, the end-to-end
// harvest -> retrain -> publish -> adapted-pickup path, cross-tenant
// isolation, drain behavior, and bit-identity across runner counts.
// Runs under TSan via scripts/check.sh (ctest -L learning).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "models/adaptive.h"
#include "models/classifier_model.h"
#include "models/repository.h"
#include "service/learning/drift_detector.h"
#include "service/learning/feedback_store.h"
#include "service/learning/learning_loop.h"
#include "service/service.h"
#include "tuner/comparator.h"
#include "workloads/collection.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

std::vector<double> RowOf(double v, size_t dim = 3) {
  return std::vector<double>(dim, v);
}

// ---------------------------------------------------------------------------
// FeedbackStore.

TEST(FeedbackStoreTest, BoundsEvictionAndHoldoutSplit) {
  FeedbackStore::Options o;
  o.capacity_per_tenant = 16;
  o.holdout_every = 4;
  o.holdout_capacity = 8;
  FeedbackStore store(o);

  int holdout_rows = 0;
  for (int i = 0; i < 100; ++i) {
    if (store.Add("t", RowOf(i), i % 3, i % 3)) ++holdout_rows;
  }
  // Every 4th row went to the holdout split, FIFO-bounded at 8.
  EXPECT_EQ(holdout_rows, 25);
  EXPECT_EQ(store.HoldoutSize("t"), 8u);
  // The train reservoir is bounded and the overflow was evicted.
  EXPECT_EQ(store.TrainSize("t"), 16u);
  EXPECT_EQ(store.RowsSeen("t"), 100);
  EXPECT_EQ(store.total_added(), 100);
  EXPECT_GT(store.total_evicted(), 0);
  EXPECT_EQ(store.total_dropped(), 0);

  const Dataset train = store.TrainData("t");
  const Dataset holdout = store.HoldoutData("t");
  EXPECT_EQ(train.n(), 16u);
  EXPECT_EQ(train.d(), 3u);
  EXPECT_EQ(holdout.n(), 8u);
  // Holdout keeps the most recent split rows: indices 84, 88, ..., 99.
  EXPECT_EQ(holdout.At(0, 0), 68.0);
  EXPECT_EQ(holdout.At(7, 0), 96.0);
}

TEST(FeedbackStoreTest, TenantNamespacesAreIsolatedAndDimsGuarded) {
  FeedbackStore store(FeedbackStore::Options{});
  store.Add("a", RowOf(1.0, 3), 0, 0);
  store.Add("b", RowOf(2.0, 5), 1, 1);
  EXPECT_EQ(store.TrainData("a").d(), 3u);
  EXPECT_EQ(store.TrainData("b").d(), 5u);
  EXPECT_EQ(store.RowsSeen("a"), 1);
  EXPECT_EQ(store.RowsSeen("b"), 1);
  EXPECT_EQ(store.Tenants().size(), 2u);

  // A row whose dimensionality disagrees with the tenant's first row is
  // dropped (a featurizer change mid-run must not corrupt the matrix).
  store.Add("a", RowOf(3.0, 5), 0, 0);
  EXPECT_EQ(store.RowsSeen("a"), 1);
  EXPECT_EQ(store.total_dropped(), 1);
  // The same width is fine under the other tenant's namespace.
  store.Add("b", RowOf(3.0, 5), 2, 2);
  EXPECT_EQ(store.RowsSeen("b"), 2);
}

TEST(FeedbackStoreTest, ReservoirIsDeterministicUnderFixedSeed) {
  FeedbackStore::Options o;
  o.capacity_per_tenant = 8;
  o.holdout_every = 3;
  o.seed = 99;
  FeedbackStore s1(o);
  FeedbackStore s2(o);
  for (int i = 0; i < 200; ++i) {
    s1.Add("t", RowOf(i), i % 3, -1);
    s2.Add("t", RowOf(i), i % 3, -1);
  }
  const Dataset d1 = s1.TrainData("t");
  const Dataset d2 = s2.TrainData("t");
  ASSERT_EQ(d1.n(), d2.n());
  for (size_t i = 0; i < d1.n(); ++i) {
    EXPECT_EQ(d1.At(i, 0), d2.At(i, 0));
    EXPECT_EQ(d1.Label(i), d2.Label(i));
  }
}

// ---------------------------------------------------------------------------
// DriftDetector.

DriftDetector::Options QuickDrift() {
  DriftDetector::Options o;
  o.window = 16;
  o.min_observations = 8;
  o.min_f1 = 0.5;
  o.max_miss_rate = 0.5;
  return o;
}

TEST(DriftDetectorTest, TriggersOnMissedRegressionsAndCoolsDown) {
  DriftDetector drift(QuickDrift());
  // A model that never predicts kRegression: miss rate 1, F1 0. No
  // trigger until min_observations true outcomes accumulate.
  bool triggered = false;
  int at = 0;
  for (int i = 0; i < 8; ++i) {
    triggered = drift.Record("t", kRegression, kImprovement);
    if (triggered) {
      at = i;
      break;
    }
  }
  EXPECT_TRUE(triggered);
  EXPECT_EQ(at, 7);  // Exactly at min_observations.
  EXPECT_EQ(drift.triggers(), 1);
  // The trigger cleared the window: the next record starts from scratch.
  EXPECT_EQ(drift.Snapshot("t").observations, 0);
  EXPECT_FALSE(drift.Record("t", kRegression, kImprovement));

  // A perfect model never triggers.
  DriftDetector good(QuickDrift());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(good.Record("g", i % 2 == 0 ? kRegression : kImprovement,
                             i % 2 == 0 ? kRegression : kImprovement));
  }
  const DriftDetector::Window w = good.Snapshot("g");
  EXPECT_EQ(w.observations, 16);  // Rolling window length.
  EXPECT_EQ(w.miss_rate, 0.0);
  EXPECT_EQ(w.f1, 1.0);

  // Unknown predictions (no live-model record) are ignored entirely.
  DriftDetector unknown(QuickDrift());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(unknown.Record("u", kRegression, -1));
  }
  EXPECT_EQ(unknown.Snapshot("u").observations, 0);
}

TEST(DriftDetectorTest, NoTriggerWithoutRegressionSupport) {
  DriftDetector drift(QuickDrift());
  // All-improvement truth: F1 of the regression class is undefined (no
  // support), which must not count as drift no matter how long it runs.
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(drift.Record("t", kImprovement, kUnsure));
  }
  EXPECT_EQ(drift.triggers(), 0);
}

// ---------------------------------------------------------------------------
// Comparator decision sink.

struct RecordingSink : ComparatorDecisionSink {
  struct Decision {
    uint64_t h1, h2;
    int label;
  };
  std::vector<Decision> decisions;
  void OnDecision(uint64_t h1, uint64_t h2, int label) override {
    decisions.push_back({h1, h2, label});
  }
};

TEST(DecisionSinkTest, ComparatorReportsEveryFreshLabelOnce) {
  auto bdb = BuildTpchLike("sink", 1, 0.9, 61);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 3;
  copts.seed = 62;
  CollectExecutionData(bdb.get(), 0, copts, &repo);
  Rng rng(63);
  PairFeaturizer fz({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                    PairCombine::kPairDiffNormalized);
  PairDatasetBuilder builder(&repo, fz, PairLabeler(0.2));
  const Dataset data = builder.Build(repo.MakePairs(40, &rng));
  auto trained = MakeClassifier(ModelKind::kRandomForest, fz, 64);
  trained->Fit(data);
  std::shared_ptr<const Classifier> model = std::move(trained);

  std::vector<std::shared_ptr<const PhysicalPlan>> plans;
  for (size_t i = 0; i < 4; ++i) {
    plans.push_back(bdb->what_if()->Optimize(bdb->queries()[i], {}));
  }

  RecordingSink sink;
  ModelComparator comparator(model, fz);
  comparator.set_decision_sink(&sink);

  comparator.IsRegression(*plans[0], *plans[1]);
  ASSERT_EQ(sink.decisions.size(), 1u);
  EXPECT_EQ(sink.decisions[0].h1, plans[0]->ContentHash());
  EXPECT_EQ(sink.decisions[0].h2, plans[1]->ContentHash());
  EXPECT_EQ(sink.decisions[0].label,
            comparator.Label(*plans[0], *plans[1]));
  // A memoized decision is not re-reported.
  comparator.IsImprovement(*plans[0], *plans[1]);
  EXPECT_EQ(sink.decisions.size(), 1u);

  // The batched Prime path reports each fresh pair exactly once too.
  std::vector<PlanPairView> pairs;
  for (size_t i = 0; i < plans.size(); ++i) {
    for (size_t j = 0; j < plans.size(); ++j) {
      if (i != j) pairs.push_back({plans[i].get(), plans[j].get()});
    }
  }
  comparator.Prime(pairs, nullptr);
  EXPECT_EQ(sink.decisions.size(), pairs.size());
  comparator.Prime(pairs, nullptr);
  EXPECT_EQ(sink.decisions.size(), pairs.size());
}

// ---------------------------------------------------------------------------
// Per-tenant registry drift windows (satellite of ReportOutcome).

TEST(RegistryDriftWindowTest, TenantWindowsAccumulateAndResetOnPublish) {
  ModelRegistry registry;
  PairFeaturizer fz({Channel::kEstNodeCost}, PairCombine::kPairDiffNormalized);
  registry.Publish("m", MakeClassifier(ModelKind::kLogisticRegression, fz, 1),
                   fz);

  registry.ReportOutcome("m", 1, "a", true);
  registry.ReportOutcome("m", 1, "a", false);
  registry.ReportOutcome("m", 1, "b", false);
  // The 3-arg form stays tenant-less: global only.
  registry.ReportOutcome("m", 1, true);

  EXPECT_EQ(registry.GlobalDrift("m").observations, 4);
  EXPECT_EQ(registry.GlobalDrift("m").regressions, 2);
  EXPECT_EQ(registry.TenantDrift("m", "a").observations, 2);
  EXPECT_EQ(registry.TenantDrift("m", "a").regressions, 1);
  EXPECT_EQ(registry.TenantDrift("m", "a").rate(), 0.5);
  EXPECT_EQ(registry.TenantDrift("m", "b").observations, 1);
  EXPECT_EQ(registry.TenantDrift("m", "b").regressions, 0);
  EXPECT_EQ(registry.TenantDrift("m", "never").observations, 0);

  // Stale versions are ignored; a publish resets every window.
  registry.ReportOutcome("m", 7, "a", true);
  EXPECT_EQ(registry.TenantDrift("m", "a").observations, 2);
  registry.Publish("m", MakeClassifier(ModelKind::kLogisticRegression, fz, 2),
                   fz);
  EXPECT_EQ(registry.GlobalDrift("m").observations, 0);
  EXPECT_EQ(registry.TenantDrift("m", "a").observations, 0);
}

// ---------------------------------------------------------------------------
// Adapted model semantics.

TEST(AdaptedModelTest, UncertaintyArgmaxMatchesAdaptiveStrategy) {
  auto bdb = BuildTpchLike("adapt", 1, 0.9, 71);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 4;
  copts.seed = 72;
  CollectExecutionData(bdb.get(), 0, copts, &repo);
  Rng rng(73);
  PairFeaturizer fz({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                    PairCombine::kPairDiffNormalized);
  PairDatasetBuilder builder(&repo, fz, PairLabeler(0.2));
  const auto pairs = repo.MakePairs(60, &rng);
  const Dataset data = builder.Build(pairs);
  // Offline model and local split from disjoint halves of the rows.
  std::vector<size_t> head, tail;
  for (size_t i = 0; i < data.n(); ++i) {
    (i < data.n() / 2 ? head : tail).push_back(i);
  }
  const Dataset offline_train = data.Subset(head);
  const Dataset local_train = data.Subset(tail);
  auto trained = MakeClassifier(ModelKind::kRandomForest, fz, 74);
  trained->Fit(offline_train);
  std::shared_ptr<const Classifier> offline_model = std::move(trained);

  // The service's retrain publishes exactly this strategy.
  const UncertaintyStrategy adapted(offline_model, local_train, 75);
  // The old rule, inline: the less uncertain model answers, local winning
  // ties. Same seed, so `local` is the strategy's own local forest.
  const LocalStrategy local(local_train, 75);
  const Classifier& local_model = *local.local_model();
  int disagreements = 0;
  for (size_t i = 0; i < data.n(); ++i) {
    const double* x = data.Row(i);
    const bool local_wins =
        local_model.Uncertainty(x) <= offline_model->Uncertainty(x);
    const int want =
        local_wins ? local_model.Predict(x) : offline_model->Predict(x);
    EXPECT_EQ(adapted.Predict(x), want);
    if (adapted.Predict(x) != offline_model->Predict(x)) ++disagreements;
  }
  // The local forest must actually participate (not collapse to offline).
  EXPECT_GT(disagreements, 0);
}

// ---------------------------------------------------------------------------
// End-to-end: harvest -> drift/count trigger -> retrain -> publish ->
// adapted pickup, inside the service.

LearningOptions QuickLearning() {
  LearningOptions l;
  l.enabled = true;
  l.feedback.capacity_per_tenant = 256;
  l.feedback.holdout_every = 2;
  l.feedback.holdout_capacity = 64;
  l.retrain_after = 4;
  l.min_train_rows = 2;
  l.min_holdout_rows = 1;
  l.drift.window = 32;
  l.drift.min_observations = 10;
  // Permissive registry gate: the F1 comparison inside the retrain is the
  // gate under test here.
  l.gate.max_regression_miss_rate = 1.0;
  l.gate.min_accuracy = 0.0;
  l.seed = 7;
  return l;
}

// Offline model trained on execution data from a *different* database
// (seed/skew) than the tenant tunes — the §4.3 drift setting.
struct Offline {
  std::shared_ptr<const Classifier> classifier;
  PairFeaturizer fz{{Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                    PairCombine::kPairDiffNormalized};
};

Offline TrainOfflineModel(const std::string& db_name, uint64_t seed) {
  auto bdb = BuildTpchLike(db_name, 1, 0.0, seed);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 4;
  copts.seed = seed + 1;
  CollectExecutionData(bdb.get(), 0, copts, &repo);
  Rng rng(seed + 2);
  Offline out;
  PairDatasetBuilder builder(&repo, out.fz, PairLabeler(0.2));
  const Dataset data = builder.Build(repo.MakePairs(40, &rng));
  auto trained = MakeClassifier(ModelKind::kRandomForest, out.fz, seed + 3);
  trained->Fit(data);
  out.classifier = std::move(trained);
  return out;
}

struct LoopRun {
  std::vector<std::string> trace_keys;
  LearningLoop::TenantStats stats;
  size_t train_rows = 0;
  size_t holdout_rows = 0;
  int adapted_version = 0;  // 0 = nothing published under the adapted name.
};

std::string TraceKey(const ContinuousTuner::QueryTrace& t) {
  std::string out = t.final_config.Fingerprint();
  out += StrFormat("|init:%.17g|final:%.17g|n:%zu", t.initial_cost,
                   t.final_cost, t.iterations.size());
  for (const auto& ir : t.iterations) {
    out += StrFormat("|%d:%.17g:%d", ir.iteration, ir.measured_cost,
                     ir.regressed ? 1 : 0);
  }
  return out;
}

// Runs the whole loop for one tenant on a drifted database and returns
// everything observable; used both for the e2e assertions and for the
// runner-count bit-identity guard.
LoopRun RunLearningLoop(int job_runners, const LearningOptions& learning) {
  auto service = std::move(
      TuningService::Create(
          ServiceOptions().WithJobRunners(job_runners).WithLearning(learning))
          .value());
  const Offline offline = TrainOfflineModel("learn_off", 81);
  service->models().Publish("offline", offline.classifier, offline.fz);

  auto bdb = BuildTpchLike("learn_tenant", 1, 0.9, 91);
  SessionOptions so;
  so.name = "tenant";
  so.env = bdb->MakeEnv(0);
  so.comparator.regression_threshold = 0.2;
  so.iterations = 8;
  so.model = "offline";
  Session* session = service->CreateSession(so).value();

  LoopRun run;
  const size_t num_queries = std::min<size_t>(8, bdb->queries().size());
  for (size_t qi = 0; qi < num_queries; ++qi) {
    auto job = session->TuneContinuous(bdb->queries()[qi], {}).value();
    job->Wait();
    EXPECT_EQ(job->phase(), JobPhase::kDone) << job->status().ToString();
    run.trace_keys.push_back(TraceKey(job->outputs().trace));
  }
  // Settle any retrain still in flight after the last job so the stats
  // below are final.
  service->learning()->BarrierFor("tenant");
  run.stats = service->learning()->StatsFor("tenant");
  run.train_rows = service->learning()->feedback().TrainSize("tenant");
  run.holdout_rows = service->learning()->feedback().HoldoutSize("tenant");
  auto adapted =
      service->models().Snapshot(AdaptedModelName("offline", "tenant"));
  run.adapted_version = adapted == nullptr ? 0 : adapted->version;

  // Whatever happened, the retrain accounting must close.
  EXPECT_EQ(run.stats.retrains_submitted,
            run.stats.retrains_completed + run.stats.retrains_cancelled);
  return run;
}

TEST(LearningLoopTest, HarvestRetrainPublishServesAdaptedModel) {
  const LoopRun run = RunLearningLoop(/*job_runners=*/2, QuickLearning());

  // Harvest fed the store and split out a holdout.
  EXPECT_GT(run.stats.rows_harvested, 0);
  EXPECT_GT(run.train_rows, 0u);
  EXPECT_GT(run.holdout_rows, 0u);
  // The row-count trigger fired and the background retrain completed.
  ASSERT_GE(run.stats.retrains_submitted, 1);
  ASSERT_GE(run.stats.retrains_completed, 1);
  // Every completed retrain either published or was skipped by the F1
  // comparison; both F1s were measured on the tenant holdout.
  EXPECT_EQ(run.stats.retrains_completed,
            run.stats.publishes + run.stats.publish_skipped);
  EXPECT_GE(run.stats.last_offline_f1, 0.0);
  EXPECT_GE(run.stats.last_adapted_f1, 0.0);

  // The acceptance path: the adapted model was published under the
  // tenant-suffixed name and its holdout F1 is no worse than offline's.
  ASSERT_GE(run.stats.publishes, 1);
  EXPECT_GE(run.stats.last_adapted_f1, run.stats.last_offline_f1);
  EXPECT_GE(run.adapted_version, 1);
  EXPECT_EQ(run.stats.adapted_version, run.adapted_version);
}

TEST(LearningLoopTest, BitIdenticalAcrossRunnerCounts) {
  // The whole loop — harvest order, reservoir, retrain seed, publish,
  // pickup iteration — must not depend on how many runners the service
  // happens to have.
  const LoopRun one = RunLearningLoop(1, QuickLearning());
  const LoopRun four = RunLearningLoop(4, QuickLearning());
  EXPECT_EQ(one.trace_keys, four.trace_keys);
  EXPECT_EQ(one.stats.rows_harvested, four.stats.rows_harvested);
  EXPECT_EQ(one.stats.retrains_submitted, four.stats.retrains_submitted);
  EXPECT_EQ(one.stats.publishes, four.stats.publishes);
  EXPECT_EQ(one.stats.publish_skipped, four.stats.publish_skipped);
  EXPECT_EQ(one.stats.adapted_version, four.stats.adapted_version);
  EXPECT_EQ(one.stats.last_offline_f1, four.stats.last_offline_f1);
  EXPECT_EQ(one.stats.last_adapted_f1, four.stats.last_adapted_f1);
  EXPECT_EQ(one.train_rows, four.train_rows);
  EXPECT_EQ(one.holdout_rows, four.holdout_rows);
  EXPECT_EQ(one.adapted_version, four.adapted_version);
}

TEST(LearningLoopTest, TenantsHarvestAndAdaptInIsolation) {
  auto service = std::move(
      TuningService::Create(ServiceOptions().WithLearning(QuickLearning()))
          .value());
  const Offline offline = TrainOfflineModel("learn_iso_off", 101);
  service->models().Publish("offline", offline.classifier, offline.fz);

  auto db_a = BuildTpchLike("learn_iso_a", 1, 0.9, 111);
  auto db_b = BuildTpchLike("learn_iso_b", 1, 0.9, 112);
  SessionOptions sa;
  sa.name = "a";
  sa.env = db_a->MakeEnv(0);
  sa.iterations = 8;
  sa.model = "offline";
  SessionOptions sb = sa;
  sb.name = "b";
  sb.env = db_b->MakeEnv(1);
  Session* a = service->CreateSession(sa).value();
  ASSERT_TRUE(service->CreateSession(sb).ok());

  // Only tenant a runs jobs; tenant b must observe nothing.
  for (size_t qi = 0; qi < 4; ++qi) {
    auto job = a->TuneContinuous(db_a->queries()[qi], {}).value();
    job->Wait();
    ASSERT_EQ(job->phase(), JobPhase::kDone) << job->status().ToString();
  }
  service->learning()->BarrierFor("a");
  EXPECT_GT(service->learning()->StatsFor("a").rows_harvested, 0);
  EXPECT_EQ(service->learning()->StatsFor("b").rows_harvested, 0);
  EXPECT_EQ(service->learning()->feedback().TrainSize("b"), 0u);
  // a's adapted publish (if any) lives under a's name only; b still
  // resolves the shared offline model.
  EXPECT_EQ(service->models().Snapshot(AdaptedModelName("offline", "b")),
            nullptr);
  auto resolved_b = service->learning()->ResolveModel("offline", "b");
  ASSERT_NE(resolved_b, nullptr);
  EXPECT_EQ(resolved_b->name, "offline");
}

TEST(LearningLoopTest, DrainCancelsQueuedRetrainsAndResumeRearms) {
  LearningOptions learning = QuickLearning();
  learning.retrain_after = 4;  // Trigger eagerly.
  auto service = std::move(
      TuningService::Create(
          ServiceOptions().WithJobRunners(1).WithLearning(learning))
          .value());
  const Offline offline = TrainOfflineModel("learn_drain_off", 121);
  service->models().Publish("offline", offline.classifier, offline.fz);

  auto bdb = BuildTpchLike("learn_drain", 1, 0.9, 131);
  SessionOptions so;
  so.name = "tenant";
  so.env = bdb->MakeEnv(0);
  so.iterations = 8;
  so.model = "offline";
  Session* session = service->CreateSession(so).value();

  auto job = session->TuneContinuous(bdb->queries()[0], {}).value();
  job->Wait();
  ASSERT_TRUE(job->terminal());

  // Drain with a retrain possibly still queued (the final iteration's
  // harvest can submit one no barrier will ever steal): the drain must
  // reach idle, the loop's accounting must close, and the barrier must
  // return promptly afterwards.
  ASSERT_TRUE(service->Drain().ok());
  service->learning()->BarrierFor("tenant");
  const LearningLoop::TenantStats stats =
      service->learning()->StatsFor("tenant");
  EXPECT_EQ(stats.retrains_submitted,
            stats.retrains_completed + stats.retrains_cancelled);

  // Resume lifts the drain; the loop keeps working.
  service->Resume();
  auto job2 = session->TuneContinuous(bdb->queries()[1], {}).value();
  job2->Wait();
  EXPECT_EQ(job2->phase(), JobPhase::kDone) << job2->status().ToString();
}

TEST(LearningOptionsTest, ValidateRejectsBadValues) {
  EXPECT_TRUE(LearningOptions().Validate().ok());  // Disabled: anything goes.
  LearningOptions l = QuickLearning();
  EXPECT_TRUE(l.Validate().ok());
  EXPECT_FALSE(LearningOptions(l).WithRetrainAfter(-1).Validate().ok());
  EXPECT_FALSE(LearningOptions(l).WithMinTrainRows(0).Validate().ok());
  EXPECT_FALSE(LearningOptions(l).WithMaxPairPartners(0).Validate().ok());
  LearningOptions bad_holdout = l;
  bad_holdout.feedback.holdout_every = 1;
  EXPECT_FALSE(bad_holdout.Validate().ok());
  LearningOptions bad_drift = l;
  bad_drift.drift.min_f1 = 1.5;
  EXPECT_FALSE(bad_drift.Validate().ok());
  // ServiceOptions::Validate runs the learning validation.
  EXPECT_FALSE(
      ServiceOptions().WithLearning(bad_drift).Validate().ok());
}

}  // namespace
}  // namespace aimai
