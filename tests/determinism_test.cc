// Determinism guarantees: identical seeds must produce bit-identical
// databases, execution data, features, and model predictions — the
// experiments' reproducibility rests on this.

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "common/thread_pool.h"
#include "exec/executor.h"
#include "models/classifier_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/learning/learning_loop.h"
#include "service/service.h"
#include "tuner/comparator.h"
#include "tuner/continuous_tuner.h"
#include "workloads/collection.h"
#include "workloads/customer.h"
#include "workloads/tpcds_like.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

TEST(DeterminismTest, TpchBuildsIdentically) {
  auto a = BuildTpchLike("d1", 2, 0.9, 1234);
  auto b = BuildTpchLike("d1", 2, 0.9, 1234);
  ASSERT_EQ(a->db()->num_tables(), b->db()->num_tables());
  for (int t = 0; t < a->db()->num_tables(); ++t) {
    const Table& ta = a->db()->table(t);
    const Table& tb = b->db()->table(t);
    ASSERT_EQ(ta.num_rows(), tb.num_rows());
    ASSERT_EQ(ta.num_columns(), tb.num_columns());
    for (size_t c = 0; c < ta.num_columns(); ++c) {
      for (size_t r = 0; r < ta.num_rows(); r += 97) {  // Sampled.
        ASSERT_EQ(ta.column(c).NumericAt(r), tb.column(c).NumericAt(r))
            << "table " << t << " col " << c << " row " << r;
      }
    }
  }
  // Queries identical (names, structure, constants).
  ASSERT_EQ(a->queries().size(), b->queries().size());
  for (size_t i = 0; i < a->queries().size(); ++i) {
    EXPECT_EQ(a->queries()[i].ToString(*a->db()),
              b->queries()[i].ToString(*b->db()));
  }
}

TEST(DeterminismTest, DifferentSeedsDiffer) {
  auto a = BuildCustomer("c", CustomerProfileFor(2), 1);
  auto b = BuildCustomer("c", CustomerProfileFor(2), 2);
  // At least the query constants should differ somewhere.
  bool any_diff = a->queries().size() != b->queries().size();
  for (size_t i = 0; !any_diff && i < a->queries().size(); ++i) {
    any_diff = a->queries()[i].ToString(*a->db()) !=
               b->queries()[i].ToString(*b->db());
  }
  EXPECT_TRUE(any_diff);
}

TEST(DeterminismTest, CollectionAndTrainingAreReproducible) {
  auto run = [](uint64_t seed) {
    auto bdb = BuildTpcdsLike("dd", 1, 0.8, false, seed);
    ExecutionDataRepository repo;
    CollectionOptions copts;
    copts.configs_per_query = 4;
    copts.seed = seed + 1;
    CollectExecutionData(bdb.get(), 0, copts, &repo);
    Rng rng(seed + 2);
    const auto pairs = repo.MakePairs(30, &rng);
    PairFeaturizer fz({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                      PairCombine::kPairDiffNormalized);
    PairDatasetBuilder builder(&repo, fz, PairLabeler(0.2));
    Dataset data = builder.Build(pairs);
    auto rf = MakeClassifier(ModelKind::kRandomForest, fz, seed + 3);
    rf->Fit(data);
    std::vector<double> out;
    for (size_t i = 0; i < data.n(); i += 7) {
      const auto p = rf->PredictProba(data.Row(i));
      out.insert(out.end(), p.begin(), p.end());
      out.push_back(repo.plan(pairs[i].a).exec_cost);
      out.push_back(repo.plan(pairs[i].b).est_cost);
    }
    return out;
  };
  EXPECT_EQ(run(777), run(777));
}

TEST(DeterminismTest, PlanCloneIsDeepAndEqual) {
  auto bdb = BuildTpchLike("dc", 1, 0.9, 5);
  for (size_t qi = 0; qi < 6; ++qi) {
    const auto p = bdb->what_if()->Optimize(bdb->queries()[qi], {});
    auto clone = p->Clone();
    EXPECT_EQ(clone->ToString(*bdb->db()), p->ToString(*bdb->db()));
    // Mutating the clone must not affect the original.
    clone->root->stats.est_rows = -1;
    EXPECT_NE(clone->root->stats.est_rows, p->root->stats.est_rows);
  }
}

// All classifier families: probabilities well-formed and deterministic.
class ModelKindProperty : public ::testing::TestWithParam<ModelKind> {};

TEST_P(ModelKindProperty, ProbabilitiesWellFormedAndDeterministic) {
  const ModelKind kind = GetParam();
  Rng rng(55);
  Dataset data(6);
  for (int i = 0; i < 250; ++i) {
    std::vector<double> x(6);
    for (double& v : x) v = rng.Uniform(-1, 1);
    const int label = x[0] + x[1] > 0.3 ? 1 : (x[2] > 0.5 ? 2 : 0);
    data.Add(x, label);
  }
  const PairFeaturizer fz({Channel::kEstNodeCost},
                          PairCombine::kPairDiffNormalized);
  auto a = MakeClassifier(kind, fz, 9);
  auto b = MakeClassifier(kind, fz, 9);
  // DNN variants would need group sizes matching d=6; use plain options.
  if (kind == ModelKind::kDnn || kind == ModelKind::kHybridDnn) {
    GTEST_SKIP() << "DNN group wiring requires featurizer-shaped inputs";
  }
  a->Fit(data);
  b->Fit(data);
  for (size_t i = 0; i < data.n(); i += 11) {
    const std::vector<double> pa = a->PredictProba(data.Row(i));
    EXPECT_EQ(pa, b->PredictProba(data.Row(i)));
    double sum = 0;
    for (double v : pa) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0 + 1e-9);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, ModelKindProperty,
    ::testing::Values(ModelKind::kLogisticRegression,
                      ModelKind::kRandomForest,
                      ModelKind::kGradientBoostedTrees,
                      ModelKind::kLightGbm));

// Observability is read-only: turning metrics and trace collection on or
// off must not change a single tuner recommendation or model output.
TEST(DeterminismTest, ObservabilityDoesNotPerturbResults) {
  auto run = [](bool obs_on, bool trace_on) {
    obs::SetEnabled(obs_on);
    obs::SetTraceEnabled(trace_on);

    std::vector<double> out;
    // Model path: collect, featurize, train, predict.
    auto bdb = BuildTpchLike("dobs", 1, 0.9, 321);
    ExecutionDataRepository repo;
    CollectionOptions copts;
    copts.configs_per_query = 4;
    copts.seed = 322;
    CollectExecutionData(bdb.get(), 0, copts, &repo);
    Rng rng(323);
    const auto pairs = repo.MakePairs(20, &rng);
    PairFeaturizer fz({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                      PairCombine::kPairDiffNormalized);
    PairDatasetBuilder builder(&repo, fz, PairLabeler(0.2));
    Dataset data = builder.Build(pairs);
    auto rf = MakeClassifier(ModelKind::kRandomForest, fz, 324);
    rf->Fit(data);
    for (size_t i = 0; i < data.n(); i += 9) {
      const auto p = rf->PredictProba(data.Row(i));
      out.insert(out.end(), p.begin(), p.end());
    }

    // Tuner path: continuous tuning recommendations over a few queries.
    TuningEnv env = bdb->MakeEnv(0);
    CandidateGenerator candidates(bdb->db(), bdb->stats());
    ContinuousTuner::Options topts;
    topts.iterations = 2;
    ContinuousTuner tuner(&env, &candidates, topts);
    ContinuousTuner::ComparatorFactory factory =
        []() -> std::unique_ptr<CostComparator> {
      return std::make_unique<OptimizerComparator>(0.0, 0.2);
    };
    for (size_t qi = 0; qi < 4 && qi < bdb->queries().size(); ++qi) {
      const auto trace = tuner.TuneQuery(bdb->queries()[qi],
                                         bdb->initial_config(), factory,
                                         nullptr, nullptr);
      out.push_back(trace.initial_cost);
      out.push_back(trace.final_cost);
      out.push_back(trace.regress_final ? 1.0 : 0.0);
      out.push_back(trace.improve_cumulative ? 1.0 : 0.0);
    }

    // Restore defaults so later tests see the shipped configuration.
    obs::SetEnabled(true);
    obs::SetTraceEnabled(false);
    obs::Tracer().Clear();
    return out;
  };
  const std::vector<double> off = run(/*obs_on=*/false, /*trace_on=*/false);
  const std::vector<double> on = run(/*obs_on=*/true, /*trace_on=*/true);
  EXPECT_EQ(off, on);
}

// The vectorized engine's contract: continuous-tuning recommendations,
// measured costs, and every iteration's decision are bit-identical
// whether query executions run through the columnar batch pipeline or
// the row-at-a-time interpreter. Execution feeds the tuner's labels, so
// engine choice must be unobservable end to end.
TEST(DeterminismTest, VectorizedTuningMatchesRowEngine) {
  auto run = [](ExecMode mode) {
    // Fresh same-seed database per run: no cache state crosses over.
    auto bdb = BuildTpchLike("dvec", 1, 0.9, 77);
    TuningEnv env = bdb->MakeEnv(0);
    env.executor->set_mode(mode);
    CandidateGenerator candidates(bdb->db(), bdb->stats());
    ContinuousTuner::Options topts;
    topts.iterations = 2;
    ContinuousTuner tuner(&env, &candidates, topts);
    ContinuousTuner::ComparatorFactory factory =
        []() -> std::unique_ptr<CostComparator> {
      return std::make_unique<OptimizerComparator>(0.0, 0.2);
    };
    std::string out;
    for (size_t qi = 0; qi < 5 && qi < bdb->queries().size(); ++qi) {
      const auto trace = tuner.TuneQuery(bdb->queries()[qi],
                                         bdb->initial_config(), factory,
                                         nullptr, nullptr);
      out += StrFormat("|%s:init=%.17g:final=%.17g",
                       trace.query_name.c_str(), trace.initial_cost,
                       trace.final_cost);
      out += "|" + trace.final_config.Fingerprint();
      for (const auto& it : trace.iterations) {
        out += StrFormat("|it%d:%.17g:%d", it.iteration, it.measured_cost,
                         it.regressed ? 1 : 0);
      }
    }
    return out;
  };
  EXPECT_EQ(run(ExecMode::kRow), run(ExecMode::kBatch));
}

// The parallel tuning engine's contract: recommendations, estimated
// costs, and the chosen plans are bit-identical whether the what-if
// fan-out runs on 1 thread or 8. Only pure optimizer calls parallelize;
// every comparator decision replays serially in canonical order.
TEST(DeterminismTest, ParallelTuningMatchesSerial) {
  auto run = [](int threads) {
    ThreadPool pool(threads);
    // A fresh same-seed database per run: no cache state crosses over.
    auto bdb = BuildTpchLike("dpar", 1, 0.9, 99);
    std::vector<WorkloadQuery> wl;
    for (size_t i = 0; i < 8 && i < bdb->queries().size(); ++i) {
      wl.push_back(WorkloadQuery{bdb->queries()[i],
                                 1.0 + static_cast<double>(i % 3)});
    }
    CandidateGenerator gen(bdb->db(), bdb->stats());
    WorkloadLevelTuner::Options o;
    o.pool = &pool;
    WorkloadLevelTuner tuner(bdb->db(), bdb->what_if(), &gen, o);
    OptimizerComparator cmp(0.0, 0.2);
    const WorkloadTuningResult r =
        tuner.Tune(wl, bdb->initial_config(), cmp);
    // Serialize everything observable: configuration, index order, exact
    // costs (all 17 digits), and the full plan trees.
    std::string out = r.recommended.Fingerprint();
    out += StrFormat("|base:%.17g|final:%.17g", r.base_est_cost,
                     r.final_est_cost);
    for (const IndexDef& def : r.new_indexes) {
      out += "|" + def.CanonicalName();
    }
    for (const auto& p : r.final_plans) out += "|" + p->ToString(*bdb->db());
    for (const auto& p : r.base_plans) out += "|" + p->ToString(*bdb->db());
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

// The model-gated tuner's contract: a workload tune whose decisions go
// through a ModelComparator (label memo, feature cache, scalar model
// inference) is bit-identical at 1 and 8 threads. Comparators may be
// shared across threads, so labels must never depend on which thread
// asked first.
TEST(DeterminismTest, ModelGatedWorkloadTuningMatchesAcrossThreads) {
  // Train one classifier on collected execution data.
  auto train_db = BuildTpchLike("dbt", 1, 0.9, 88);
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 4;
  copts.seed = 89;
  CollectExecutionData(train_db.get(), 0, copts, &repo);
  Rng rng(90);
  const auto pairs = repo.MakePairs(40, &rng);
  PairFeaturizer fz({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                    PairCombine::kPairDiffNormalized);
  PairDatasetBuilder builder(&repo, fz, PairLabeler(0.2));
  const Dataset data = builder.Build(pairs);
  auto trained = MakeClassifier(ModelKind::kRandomForest, fz, 91);
  trained->Fit(data);
  const std::shared_ptr<const Classifier> model = std::move(trained);

  auto run = [&](int threads) {
    ThreadPool pool(threads);
    auto bdb = BuildTpchLike("dbt2", 1, 0.9, 92);
    std::vector<WorkloadQuery> wl;
    for (size_t i = 0; i < 8 && i < bdb->queries().size(); ++i) {
      wl.push_back(WorkloadQuery{bdb->queries()[i], 1.0});
    }
    CandidateGenerator gen(bdb->db(), bdb->stats());
    WorkloadLevelTuner::Options o;
    o.pool = &pool;
    WorkloadLevelTuner tuner(bdb->db(), bdb->what_if(), &gen, o);

    const ModelComparator cmp(model, fz);
    const WorkloadTuningResult r = tuner.Tune(wl, bdb->initial_config(), cmp);
    std::string out = r.recommended.Fingerprint();
    out += StrFormat("|base:%.17g|final:%.17g", r.base_est_cost,
                     r.final_est_cost);
    for (const IndexDef& def : r.new_indexes) out += "|" + def.CanonicalName();
    for (const auto& p : r.final_plans) out += "|" + p->ToString(*bdb->db());
    return out;
  };
  EXPECT_EQ(run(1), run(8));
}

// The service runtime's determinism contract: a session's results do not
// depend on how many other sessions share the service or how many runner
// threads execute jobs. One session on a serial (single-runner) service
// must be bit-identical to the same tenant running among N concurrent
// sessions on a parallel service.
TEST(DeterminismTest, MultiSessionServiceMatchesSerialService) {
  constexpr int kTenants = 8;
  CustomerProfile prof;
  prof.num_tables = 4;
  prof.min_rows = 200;
  prof.max_rows = 1500;
  prof.num_queries = 5;
  prof.max_joins = 2;

  auto tenant_db = [&](int i) {
    return BuildCustomer("dsvc_" + std::to_string(i), prof,
                         500 + static_cast<uint64_t>(i));
  };
  auto serialize = [](const WorkloadTuningResult& r, const Database& db) {
    std::string out = r.recommended.Fingerprint();
    out += StrFormat("|base:%.17g|final:%.17g", r.base_est_cost,
                     r.final_est_cost);
    for (const IndexDef& def : r.new_indexes) out += "|" + def.CanonicalName();
    for (const auto& p : r.final_plans) out += "|" + p->ToString(db);
    return out;
  };
  // Runs tenant i's workload job on `service` (fresh same-seed db per call).
  auto run_tenant = [&](TuningService* service, int i) {
    auto bdb = tenant_db(i);
    SessionOptions so;
    so.name = "tenant-" + std::to_string(i);
    so.env = bdb->MakeEnv(i);
    so.comparator.regression_threshold = 0.2;
    Session* session = service->CreateSession(so).value();
    std::vector<WorkloadQuery> wl;
    for (const QuerySpec& q : bdb->queries()) {
      wl.push_back(WorkloadQuery{q, 1.0});
    }
    auto job = session->TuneWorkload(wl, bdb->initial_config()).value();
    job->Wait();
    EXPECT_EQ(job->phase(), JobPhase::kDone) << job->status().ToString();
    return serialize(job->outputs().workload, *bdb->db());
  };

  // Serial baseline: each tenant alone on a single-runner, single-thread
  // service.
  std::vector<std::string> serial;
  for (int i = 0; i < kTenants; ++i) {
    auto service = std::move(
        TuningService::Create({.threads = 1, .job_runners = 1}).value());
    serial.push_back(run_tenant(service.get(), i));
  }

  // Concurrent: all tenants share one parallel service; jobs submitted
  // from concurrent threads, interleaved by the runner fleet.
  auto service = std::move(
      TuningService::Create({.threads = 4, .job_runners = kTenants}).value());
  std::vector<std::string> concurrent(kTenants);
  std::vector<std::thread> submitters;
  for (int i = 0; i < kTenants; ++i) {
    submitters.emplace_back(
        [&, i] { concurrent[i] = run_tenant(service.get(), i); });
  }
  for (auto& t : submitters) t.join();
  for (int i = 0; i < kTenants; ++i) {
    EXPECT_EQ(concurrent[i], serial[i]) << "tenant " << i << " diverged";
  }
}

TEST(DeterminismTest, LearningLoopIsBitIdenticalAcrossThreadCounts) {
  // The whole online learning loop — harvest order, reservoir eviction,
  // retrain seeding, adapted publish, and the iteration at which the
  // adapted model takes over — must replay bit-identically no matter how
  // many pool threads or job runners the service runs.
  auto run = [](int threads, int runners) {
    LearningOptions learning;
    learning.enabled = true;
    learning.feedback.holdout_every = 2;
    learning.retrain_after = 4;
    learning.min_train_rows = 2;
    learning.min_holdout_rows = 1;
    learning.gate.max_regression_miss_rate = 1.0;
    auto service = std::move(
        TuningService::Create(
            {.threads = threads, .job_runners = runners, .learning = learning})
            .value());

    // Offline model from a flat-distribution db; the tenant tunes a
    // skewed same-schema db (the drifted setting the loop adapts to).
    auto train_db = BuildTpchLike("dlearn_off", 1, 0.0, 401);
    ExecutionDataRepository train_repo;
    CollectionOptions copts;
    copts.configs_per_query = 3;
    copts.seed = 402;
    CollectExecutionData(train_db.get(), 0, copts, &train_repo);
    Rng rng(403);
    PairFeaturizer fz({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                      PairCombine::kPairDiffNormalized);
    PairDatasetBuilder builder(&train_repo, fz, PairLabeler(0.2));
    const Dataset data = builder.Build(train_repo.MakePairs(30, &rng));
    auto trained = MakeClassifier(ModelKind::kRandomForest, fz, 404);
    trained->Fit(data);
    service->models().Publish("offline",
                              std::shared_ptr<const Classifier>(
                                  std::move(trained)),
                              fz);

    auto bdb = BuildTpchLike("dlearn_tenant", 1, 0.9, 411);
    SessionOptions so;
    so.name = "tenant";
    so.env = bdb->MakeEnv(0);
    so.comparator.regression_threshold = 0.2;
    so.iterations = 8;
    so.model = "offline";
    Session* session = service->CreateSession(so).value();

    std::string key;
    for (size_t qi = 0; qi < 6 && qi < bdb->queries().size(); ++qi) {
      auto job = session->TuneContinuous(bdb->queries()[qi], {}).value();
      job->Wait();
      EXPECT_EQ(job->phase(), JobPhase::kDone) << job->status().ToString();
      const auto& t = job->outputs().trace;
      key += t.final_config.Fingerprint() +
             StrFormat("|%.17g|%zu", t.final_cost, t.iterations.size());
    }
    service->learning()->BarrierFor("tenant");
    const LearningLoop::TenantStats stats =
        service->learning()->StatsFor("tenant");
    key += StrFormat("|rows:%lld|sub:%lld|pub:%lld|skip:%lld|v:%d|%.17g|%.17g",
                     static_cast<long long>(stats.rows_harvested),
                     static_cast<long long>(stats.retrains_submitted),
                     static_cast<long long>(stats.publishes),
                     static_cast<long long>(stats.publish_skipped),
                     stats.adapted_version, stats.last_offline_f1,
                     stats.last_adapted_f1);
    key += StrFormat("|train:%zu|hold:%zu",
                     service->learning()->feedback().TrainSize("tenant"),
                     service->learning()->feedback().HoldoutSize("tenant"));
    return key;
  };

  const std::string serial = run(1, 1);
  const std::string parallel = run(4, 4);
  EXPECT_EQ(serial, parallel);
  // The loop actually did something in this configuration (the guard is
  // meaningless if nothing was harvested or retrained).
  EXPECT_NE(serial.find("|sub:"), std::string::npos);
  EXPECT_EQ(serial.find("|sub:0|"), std::string::npos);
}

TEST(DeterminismTest, HardwarePerturbationIsSeededAndBounded) {
  const CostConstants base = CostConstants::True();
  const CostConstants a = base.PerturbedForNode(10);
  const CostConstants b = base.PerturbedForNode(10);
  const CostConstants c = base.PerturbedForNode(11);
  EXPECT_EQ(a.scan_row, b.scan_row);
  EXPECT_EQ(a.key_lookup, b.key_lookup);
  EXPECT_NE(a.scan_row, c.scan_row);
  // Bounded: lognormal sigma=0.25 keeps constants within ~3x of base.
  EXPECT_GT(a.scan_row, base.scan_row / 3);
  EXPECT_LT(a.scan_row, base.scan_row * 3);
  EXPECT_TRUE(a.cache_effects);
}

}  // namespace
}  // namespace aimai
