// Multi-session tuning service tests: option validation, the job
// lifecycle, cross-tenant cache isolation on the shared plan-cache
// domain, cooperative cancellation at round boundaries, model hot swap
// without torn reads, load shedding at admission, and graceful
// drain -> checkpoint -> resume with bit-identical results.
// Runs under TSan via scripts/check.sh (ctest -L service).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "models/classifier_model.h"
#include "service/checkpoint.h"
#include "service/service.h"
#include "workloads/collection.h"
#include "workloads/customer.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

SessionOptions SessOpts(const std::string& name, BenchmarkDatabase* bdb,
                        int database_id) {
  SessionOptions o;
  o.name = name;
  o.env = bdb->MakeEnv(database_id);
  o.comparator.regression_threshold = 0.2;
  return o;
}

std::string QueryResultKey(const QueryTuningResult& r) {
  std::string out = r.recommended.Fingerprint();
  out += StrFormat("|base:%.17g|final:%.17g", r.base_plan->est_total_cost,
                   r.final_plan->est_total_cost);
  for (const IndexDef& def : r.new_indexes) {
    out += '|';
    out += def.CanonicalName();
  }
  return out;
}

std::string TraceKey(const ContinuousTuner::QueryTrace& t) {
  std::string out = t.final_config.Fingerprint();
  out += StrFormat("|init:%.17g|final:%.17g|n:%zu", t.initial_cost,
                   t.final_cost, t.iterations.size());
  for (const auto& ir : t.iterations) {
    out += StrFormat("|%d:%.17g:%d%d%d", ir.iteration, ir.measured_cost,
                     ir.regressed ? 1 : 0, ir.failed ? 1 : 0,
                     ir.quarantined ? 1 : 0);
  }
  return out;
}

TEST(ServiceOptionsTest, ValidateRejectsBadLimits) {
  EXPECT_TRUE(ServiceOptions().Validate().ok());
  EXPECT_EQ(ServiceOptions{.job_runners = 0}.Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceOptions{.max_queued_jobs = 0}.Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ServiceOptions{.cache_shard_capacity = 0}.Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(TuningService::Create({.max_sessions = 0}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ServiceOptionsTest, SessionValidateRejectsBadOptions) {
  auto bdb = BuildTpchLike("svc_opt", 1, 0.5, 11);
  // Unwired env.
  EXPECT_EQ(SessionOptions{.name = "x"}.Validate().code(),
            StatusCode::kInvalidArgument);
  const SessionOptions good = SessOpts("x", bdb.get(), 0);
  EXPECT_TRUE(good.Validate().ok());
  // Validates a copy of `good` with one field changed.
  auto code_with = [&good](auto edit) {
    SessionOptions o = good;
    edit(o);
    return o.Validate().code();
  };
  EXPECT_EQ(code_with([](SessionOptions& o) { o.name = ""; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code_with([](SessionOptions& o) { o.name = "a\x1e b"; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code_with([](SessionOptions& o) { o.priority = 0; }),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code_with([](SessionOptions& o) { o.iterations = 0; }),
            StatusCode::kInvalidArgument);
}

TEST(ServiceTest, DuplicateSessionNameAndSessionLimit) {
  auto bdb = BuildTpchLike("svc_dup", 1, 0.5, 12);
  auto service =
      std::move(TuningService::Create({.max_sessions = 2}).value());
  ASSERT_TRUE(service->CreateSession(SessOpts("a", bdb.get(), 0)).ok());
  EXPECT_EQ(service->CreateSession(SessOpts("a", bdb.get(), 0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(service->CreateSession(SessOpts("b", bdb.get(), 0)).ok());
  EXPECT_EQ(service->CreateSession(SessOpts("c", bdb.get(), 0))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(ServiceTest, QueryJobMatchesDirectTuner) {
  auto service = std::move(TuningService::Create(ServiceOptions()).value());
  auto bdb = BuildTpchLike("svc_q", 1, 0.9, 21);
  Session* session =
      service->CreateSession(SessOpts("tenant", bdb.get(), 0)).value();

  auto job =
      session->TuneQuery(bdb->queries()[0], bdb->initial_config()).value();
  job->Wait();
  ASSERT_EQ(job->phase(), JobPhase::kDone) << job->status().ToString();

  // Reference: a dedicated single-tenant run on a fresh same-seed db.
  auto ref = BuildTpchLike("svc_q", 1, 0.9, 21);
  CandidateGenerator gen(ref->db(), ref->stats());
  QueryLevelTuner tuner(ref->db(), ref->what_if(), &gen,
                        QueryLevelTuner::Options());
  OptimizerComparator cmp(ComparatorOptions{0.0, 0.2});
  const QueryTuningResult expect =
      tuner.Tune(ref->queries()[0], ref->initial_config(), cmp);
  EXPECT_EQ(QueryResultKey(job->outputs().query), QueryResultKey(expect));

  // A repeat of the same job is answered from the shared cache domain.
  auto job2 =
      session->TuneQuery(bdb->queries()[0], bdb->initial_config()).value();
  job2->Wait();
  ASSERT_EQ(job2->phase(), JobPhase::kDone);
  EXPECT_GT(service->cache_domain().num_hits(), 0);
  EXPECT_GT(service->CacheHitRate(), 0.0);
  EXPECT_EQ(QueryResultKey(job2->outputs().query), QueryResultKey(expect));
}

TEST(ServiceTest, CrossTenantCacheNeverAliasesPlans) {
  // Two tenants with byte-identical query shapes but different data
  // distributions share one cache domain. If namespacing failed, one
  // tenant would receive plans enumerated against the other's statistics.
  auto service = std::move(TuningService::Create(ServiceOptions()).value());
  auto db_a = BuildTpchLike("svc_iso", 1, 0.0, 31);
  auto db_b = BuildTpchLike("svc_iso", 3, 0.9, 32);
  Session* sa = service->CreateSession(SessOpts("a", db_a.get(), 0)).value();
  Session* sb = service->CreateSession(SessOpts("b", db_b.get(), 1)).value();

  for (size_t qi = 0; qi < 4; ++qi) {
    auto ja = sa->TuneQuery(db_a->queries()[qi], {}).value();
    auto jb = sb->TuneQuery(db_b->queries()[qi], {}).value();
    ja->Wait();
    jb->Wait();
    ASSERT_EQ(ja->phase(), JobPhase::kDone);
    ASSERT_EQ(jb->phase(), JobPhase::kDone);

    // Each tenant's result must equal its own private-optimizer run.
    auto ref_a = BuildTpchLike("svc_iso", 1, 0.0, 31);
    auto ref_b = BuildTpchLike("svc_iso", 3, 0.9, 32);
    OptimizerComparator cmp(ComparatorOptions{0.0, 0.2});
    CandidateGenerator gen_a(ref_a->db(), ref_a->stats());
    QueryLevelTuner ta(ref_a->db(), ref_a->what_if(), &gen_a,
                       QueryLevelTuner::Options());
    CandidateGenerator gen_b(ref_b->db(), ref_b->stats());
    QueryLevelTuner tb(ref_b->db(), ref_b->what_if(), &gen_b,
                       QueryLevelTuner::Options());
    EXPECT_EQ(QueryResultKey(ja->outputs().query),
              QueryResultKey(ta.Tune(ref_a->queries()[qi], {}, cmp)));
    EXPECT_EQ(QueryResultKey(jb->outputs().query),
              QueryResultKey(tb.Tune(ref_b->queries()[qi], {}, cmp)));
  }
  EXPECT_GT(service->cache_domain().num_lookups(), 0);
}

ContinuousTuner::Options MultiIterationOpts() {
  ContinuousTuner::Options copts;
  copts.iterations = 10;
  copts.regression_threshold = 0.2;
  copts.max_indexes_per_iteration = 1;  // One index per round => long runs.
  return copts;
}

std::unique_ptr<CostComparator> PlainComparator() {
  return std::make_unique<OptimizerComparator>(0.0, 0.2);
}

// Finds a query whose uninterrupted continuous run (on a fresh `seed` db)
// records at least `min_iterations` iterations; returns its index and the
// reference trace/repo, or -1 when none qualifies.
int ProbeLongRunningQuery(const std::string& db_name, uint64_t seed,
                          size_t min_iterations,
                          ContinuousTuner::QueryTrace* ref_trace,
                          ExecutionDataRepository* ref_repo) {
  auto probe = BuildTpchLike(db_name, 1, 0.9, seed);
  for (size_t qi = 0; qi < probe->queries().size(); ++qi) {
    auto ref = BuildTpchLike(db_name, 1, 0.9, seed);
    TuningEnv env = ref->MakeEnv(0);
    CandidateGenerator gen(ref->db(), ref->stats());
    ContinuousTuner tuner(&env, &gen, MultiIterationOpts());
    ExecutionDataRepository repo;
    const ContinuousTuner::QueryTrace trace = tuner.TuneQuery(
        ref->queries()[qi], {}, PlainComparator, &repo, nullptr);
    if (trace.iterations.size() >= min_iterations) {
      *ref_trace = trace;
      *ref_repo = std::move(repo);
      return static_cast<int>(qi);
    }
  }
  return -1;
}

TEST(ServiceTest, CancellationStopsContinuousJobMidRun) {
  // Deterministic mid-run cancel: the comparator factory runs once per
  // iteration; firing the token from its second call stops the loop after
  // exactly one completed iteration, with resumable state. Probe first for
  // a query whose uninterrupted run provably reaches iteration 2.
  ContinuousTuner::QueryTrace ref_trace;
  ExecutionDataRepository ref_repo;
  const int qi =
      ProbeLongRunningQuery("svc_cancel", 41, 2, &ref_trace, &ref_repo);
  ASSERT_GE(qi, 0) << "no multi-iteration query in the probe workload";

  auto bdb = BuildTpchLike("svc_cancel", 1, 0.9, 41);
  TuningEnv env = bdb->MakeEnv(0);
  CandidateGenerator gen(bdb->db(), bdb->stats());
  CancellationToken token;
  ContinuousTuner::Options copts = MultiIterationOpts();
  copts.cancel = &token;
  ContinuousTuner tuner(&env, &gen, copts);

  int factory_calls = 0;
  auto factory = [&]() -> std::unique_ptr<CostComparator> {
    if (++factory_calls == 2) token.RequestCancel();
    return PlainComparator();
  };
  ContinuousTuner::QueryState state;
  ExecutionDataRepository repo;
  tuner.TuneQueryResumable(bdb->queries()[qi], &state, factory, &repo,
                           nullptr);
  EXPECT_FALSE(state.finished);
  EXPECT_EQ(state.next_iteration, 2);
  EXPECT_EQ(state.iterations.size(), 1u);

  // The Status surface reports the cancellation.
  CancellationToken token2;
  ContinuousTuner::Options copts2 = copts;
  copts2.cancel = &token2;
  ContinuousTuner tuner2(&env, &gen, copts2);
  token2.RequestCancel();
  const auto result = tuner2.TryTuneQuery(bdb->queries()[qi], {},
                                          PlainComparator, &repo, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

TEST(ServiceTest, CancelledJobReportsTerminalPhase) {
  auto service = std::move(TuningService::Create(ServiceOptions()).value());
  auto bdb = BuildTpchLike("svc_cj", 1, 0.9, 42);
  SessionOptions so = SessOpts("tenant", bdb.get(), 0);
  so.iterations = 20;
  Session* session = service->CreateSession(so).value();
  auto job = session->TuneContinuous(bdb->queries()[0], {}).value();
  job->Cancel();
  job->Wait();
  // Depending on when the runner observed the token the job is either
  // cancelled (possibly before starting) or already finished; it must
  // never hang or land in a non-terminal phase.
  EXPECT_TRUE(job->phase() == JobPhase::kCancelled ||
              job->phase() == JobPhase::kDone);
  if (job->phase() == JobPhase::kCancelled) {
    EXPECT_EQ(job->status().code(), StatusCode::kCancelled);
  }
}

TEST(ServiceTest, ModelRegistryVersionsAndHotSwapNeverTears) {
  ModelRegistry registry;
  EXPECT_EQ(registry.Snapshot("m"), nullptr);
  EXPECT_FALSE(registry.Get("m").ok());

  PairFeaturizer narrow({Channel::kEstNodeCost},
                        PairCombine::kPairDiffNormalized);
  PairFeaturizer wide({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                      PairCombine::kPairDiffNormalized);
  EXPECT_EQ(registry.Publish(
                "m", MakeClassifier(ModelKind::kLogisticRegression, narrow, 1),
                narrow),
            1);
  EXPECT_EQ(registry.Snapshot("m")->version, 1);

  // Invariant under swap: odd versions carry the narrow featurizer, even
  // versions the wide one. A torn read (classifier from one version,
  // featurizer from another) breaks it.
  std::atomic<bool> stop{false};
  std::atomic<int> tears{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto snap = registry.Snapshot("m");
        if (snap == nullptr || snap->classifier == nullptr) {
          tears.fetch_add(1);
          continue;
        }
        const size_t want = snap->version % 2 == 1 ? 1u : 2u;
        if (snap->featurizer.plan_featurizer().channels().size() != want) {
          tears.fetch_add(1);
        }
      }
    });
  }
  for (int v = 2; v <= 60; ++v) {
    const PairFeaturizer& fz = v % 2 == 1 ? narrow : wide;
    registry.Publish(
        "m", MakeClassifier(ModelKind::kLogisticRegression, fz, v), fz);
  }
  stop.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  EXPECT_EQ(tears.load(), 0);
  EXPECT_EQ(registry.Snapshot("m")->version, 60);
  EXPECT_EQ(registry.num_swaps(), 59);
}

TEST(ServiceTest, ContinuousJobSurvivesModelHotSwapMidRun) {
  // Train two small classifiers and swap between them while a
  // model-gated continuous job runs; the job must complete normally.
  auto train_db = BuildTpchLike("svc_hs_train", 1, 0.9, 51);
  ExecutionDataRepository train_repo;
  CollectionOptions copts;
  copts.configs_per_query = 2;
  copts.seed = 52;
  CollectExecutionData(train_db.get(), 0, copts, &train_repo);
  Rng rng(53);
  const auto pairs = train_repo.MakePairs(20, &rng);
  PairFeaturizer fz({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                    PairCombine::kPairDiffNormalized);
  PairDatasetBuilder builder(&train_repo, fz, PairLabeler(0.2));
  const Dataset data = builder.Build(pairs);
  auto m1 = MakeClassifier(ModelKind::kLogisticRegression, fz, 54);
  m1->Fit(data);
  auto m2 = MakeClassifier(ModelKind::kRandomForest, fz, 55);
  m2->Fit(data);
  std::shared_ptr<const Classifier> c1 = std::move(m1);
  std::shared_ptr<const Classifier> c2 = std::move(m2);

  auto service = std::move(TuningService::Create(ServiceOptions()).value());
  service->models().Publish("gate", c1, fz);

  auto bdb = BuildTpchLike("svc_hs", 1, 0.9, 56);
  SessionOptions so = SessOpts("tenant", bdb.get(), 0);
  so.iterations = 6;
  so.model = "gate";
  Session* session = service->CreateSession(so).value();
  auto job = session->TuneContinuous(bdb->queries()[0], {}).value();
  for (int i = 0; i < 40; ++i) {
    service->models().Publish("gate", i % 2 == 0 ? c2 : c1, fz);
    if (job->terminal()) break;
    std::this_thread::yield();
  }
  job->Wait();
  ASSERT_EQ(job->phase(), JobPhase::kDone) << job->status().ToString();
  EXPECT_TRUE(job->outputs().trace.completed);
  EXPECT_GT(service->models().num_swaps(), 0);
}

TEST(ServiceTest, UnpublishedModelFailsJob) {
  auto service = std::move(TuningService::Create(ServiceOptions()).value());
  auto bdb = BuildTpchLike("svc_nm", 1, 0.9, 57);
  SessionOptions so = SessOpts("tenant", bdb.get(), 0);
  so.model = "never-published";
  Session* session = service->CreateSession(so).value();
  auto job = session->TuneQuery(bdb->queries()[0], {}).value();
  job->Wait();
  EXPECT_EQ(job->phase(), JobPhase::kFailed);
  EXPECT_EQ(job->status().code(), StatusCode::kFailedPrecondition);
}

TEST(ServiceTest, AdmissionShedsLoadWhenQueueIsFull) {
  auto service = std::move(
      TuningService::Create({.job_runners = 1, .max_queued_jobs = 1}).value());
  auto bdb = BuildTpchLike("svc_shed", 1, 0.9, 61);
  SessionOptions so = SessOpts("tenant", bdb.get(), 0);
  so.iterations = 10;
  Session* session = service->CreateSession(so).value();

  // The first job occupies the single runner (or the single queue slot);
  // with one queue slot at most one more is admissible — the rest shed.
  std::vector<std::shared_ptr<TuningJob>> jobs;
  int shed = 0;
  for (int i = 0; i < 5; ++i) {
    auto job = session->TuneContinuous(bdb->queries()[i], {});
    if (job.ok()) {
      jobs.push_back(job.value());
    } else {
      EXPECT_EQ(job.status().code(), StatusCode::kResourceExhausted);
      ++shed;
    }
  }
  EXPECT_GE(shed, 1);
  EXPECT_EQ(service->admission().shed(), shed);
  EXPECT_EQ(service->admission().admitted(),
            static_cast<int64_t>(jobs.size()));
  for (auto& job : jobs) job->Cancel();
  for (auto& job : jobs) job->Wait();
}

TEST(ServiceTest, CheckpointRoundTripsExactly) {
  ContinuousCheckpoint ckpt;
  ckpt.session_name = "tenant-7";
  ckpt.query_name = "q#3";
  ContinuousTuner::QueryState& s = ckpt.state;
  s.initialized = true;
  s.next_iteration = 4;
  s.current.Add(IndexDef{1, {0, 2}, {5}, false});
  s.current.Add(IndexDef{3, {}, {}, true});
  s.initial_cost = 123.456789012345;
  s.current_cost = 98.7654321;
  s.current_est_cost = 77.25;
  s.regress_final = true;
  s.last_skipped_fp = "fp|weird bytes \x1e\x1f";
  s.regression_counts["fp-a"] = 2;
  s.regression_counts["fp-b"] = 1;
  s.quarantined.insert("fp-a");
  ContinuousTuner::IterationRecord ir;
  ir.iteration = 3;
  ir.num_new_indexes = 2;
  ir.measured_cost = 55.5;
  ir.regressed = true;
  s.iterations.push_back(ir);

  ExecutionDataRepository repo;
  std::stringstream stream;
  ASSERT_TRUE(SaveContinuousCheckpoint(&stream, ckpt, repo).ok());

  ContinuousCheckpoint loaded;
  ExecutionDataRepository loaded_repo;
  RepositoryLoadStats stats;
  ASSERT_TRUE(
      LoadContinuousCheckpoint(&stream, &loaded, &loaded_repo, &stats).ok());
  EXPECT_EQ(loaded.session_name, ckpt.session_name);
  EXPECT_EQ(loaded.query_name, ckpt.query_name);
  const ContinuousTuner::QueryState& l = loaded.state;
  EXPECT_EQ(l.initialized, s.initialized);
  EXPECT_EQ(l.finished, s.finished);
  EXPECT_EQ(l.next_iteration, s.next_iteration);
  EXPECT_EQ(l.current.Fingerprint(), s.current.Fingerprint());
  EXPECT_EQ(l.initial_cost, s.initial_cost);
  EXPECT_EQ(l.current_cost, s.current_cost);
  EXPECT_EQ(l.current_est_cost, s.current_est_cost);
  EXPECT_EQ(l.regress_final, s.regress_final);
  EXPECT_EQ(l.last_skipped_fp, s.last_skipped_fp);
  EXPECT_EQ(l.regression_counts, s.regression_counts);
  EXPECT_EQ(l.quarantined, s.quarantined);
  ASSERT_EQ(l.iterations.size(), 1u);
  EXPECT_EQ(l.iterations[0].iteration, 3);
  EXPECT_EQ(l.iterations[0].measured_cost, 55.5);
  EXPECT_TRUE(l.iterations[0].regressed);

  std::stringstream garbage("not a checkpoint at all");
  EXPECT_EQ(LoadContinuousCheckpoint(&garbage, &loaded, &loaded_repo)
                .code(),
            StatusCode::kDataLoss);
}

TEST(ServiceTest, CheckpointResumeIsBitIdenticalToUninterrupted) {
  // Interrupted run: cancel at the start of iteration 2, serialize the
  // state through the checkpoint format, load it back, resume on the
  // same environment (the noise RNG stream continues where it stopped).
  // The probe run doubles as the never-interrupted reference.
  ContinuousTuner::QueryTrace expect;
  ExecutionDataRepository ref_repo;
  const int qi = ProbeLongRunningQuery("svc_resume", 71, 2, &expect,
                                       &ref_repo);
  ASSERT_GE(qi, 0) << "no multi-iteration query in the probe workload";

  auto bdb = BuildTpchLike("svc_resume", 1, 0.9, 71);
  TuningEnv env = bdb->MakeEnv(0);
  CandidateGenerator gen(bdb->db(), bdb->stats());
  CancellationToken token;
  ContinuousTuner::Options copts = MultiIterationOpts();
  copts.cancel = &token;
  ContinuousTuner tuner(&env, &gen, copts);

  int calls = 0;
  auto cancelling_factory = [&]() -> std::unique_ptr<CostComparator> {
    if (++calls == 2) token.RequestCancel();
    return PlainComparator();
  };
  ContinuousTuner::QueryState state;
  ExecutionDataRepository repo;
  tuner.TuneQueryResumable(bdb->queries()[qi], &state, cancelling_factory,
                           &repo, nullptr);
  ASSERT_FALSE(state.finished);

  ContinuousCheckpoint ckpt;
  ckpt.session_name = "tenant";
  ckpt.query_name = bdb->queries()[qi].name;
  ckpt.state = state;
  std::stringstream stream;
  ASSERT_TRUE(SaveContinuousCheckpoint(&stream, ckpt, repo).ok());
  ContinuousCheckpoint loaded;
  ExecutionDataRepository resumed_repo;
  ASSERT_TRUE(
      LoadContinuousCheckpoint(&stream, &loaded, &resumed_repo, nullptr)
          .ok());

  ContinuousTuner::Options copts2 = copts;
  copts2.cancel = nullptr;
  ContinuousTuner resumed_tuner(&env, &gen, copts2);
  const ContinuousTuner::QueryTrace resumed = resumed_tuner.TuneQueryResumable(
      bdb->queries()[qi], &loaded.state, PlainComparator, &resumed_repo,
      nullptr);
  EXPECT_TRUE(loaded.state.finished);
  EXPECT_EQ(TraceKey(resumed), TraceKey(expect));
  // The checkpoint carried the pre-cancel measurements, so the resumed
  // repository must end up with exactly the uninterrupted run's records.
  EXPECT_EQ(resumed_repo.num_plans(), ref_repo.num_plans());
}

TEST(ServiceTest, DrainCheckpointsRunningContinuousJobs) {
  auto service = std::move(TuningService::Create(ServiceOptions()).value());
  auto bdb = BuildTpchLike("svc_drain", 1, 0.9, 81);
  SessionOptions so = SessOpts("tenant", bdb.get(), 0);
  so.iterations = 30;
  Session* session = service->CreateSession(so).value();
  auto job = session->TuneContinuous(bdb->queries()[0], {}).value();

  // Let the job get claimed, then drain. Depending on timing it is
  // cancelled-before-start, checkpointed mid-run, or already done — all
  // terminal, and drain must always reach idle.
  while (job->phase() == JobPhase::kQueued) std::this_thread::yield();
  ASSERT_TRUE(service->Drain().ok());
  EXPECT_TRUE(job->terminal());
  EXPECT_EQ(service->queue_depth(), 0u);

  // While drained, new work is refused.
  EXPECT_EQ(session->TuneQuery(bdb->queries()[0], {}).status().code(),
            StatusCode::kFailedPrecondition);

  if (job->phase() == JobPhase::kCheckpointed) {
    // The drained state checkpoints through the repository format and
    // resumes in-process to a finished run.
    std::stringstream stream;
    ASSERT_TRUE(session->WriteCheckpoint(*job, &stream).ok());
    ContinuousCheckpoint loaded;
    ExecutionDataRepository loaded_repo;
    ASSERT_TRUE(
        LoadContinuousCheckpoint(&stream, &loaded, &loaded_repo, nullptr)
            .ok());
    EXPECT_EQ(loaded.session_name, "tenant");
    EXPECT_FALSE(loaded.state.finished);

    service->Resume();
    auto resumed =
        session->ResumeContinuous(bdb->queries()[0], loaded.state).value();
    resumed->Wait();
    ASSERT_EQ(resumed->phase(), JobPhase::kDone)
        << resumed->status().ToString();
    EXPECT_TRUE(resumed->outputs().continuous_state.finished);
  }
  service->Shutdown();
  EXPECT_EQ(session->TuneQuery(bdb->queries()[0], {}).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(ServiceTest, JobQueuePrefersPriorityAndSerializesSessions) {
  JobQueue queue(16);
  auto low1 = std::make_shared<TuningJob>(1, JobType::kQueryTuning, nullptr,
                                          "low", 1);
  auto low2 = std::make_shared<TuningJob>(2, JobType::kQueryTuning, nullptr,
                                          "low", 1);
  auto high = std::make_shared<TuningJob>(3, JobType::kQueryTuning, nullptr,
                                          "high", 5);
  ASSERT_TRUE(queue.Push(low1).ok());
  ASSERT_TRUE(queue.Push(low2).ok());
  ASSERT_TRUE(queue.Push(high).ok());

  // Highest priority first.
  auto first = queue.Claim();
  EXPECT_EQ(first->id(), 3);
  // "low" is idle, so its first job is claimable; the second must wait
  // for Release even though the queue is non-empty.
  auto second = queue.Claim();
  EXPECT_EQ(second->id(), 1);
  std::atomic<bool> claimed{false};
  std::thread blocked([&] {
    auto third = queue.Claim();
    EXPECT_EQ(third->id(), 2);
    claimed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(claimed.load());
  queue.Release("low");
  blocked.join();
  EXPECT_TRUE(claimed.load());
}

TEST(ServiceTest, SixteenConcurrentSessionsMatchSerialRuns) {
  // The acceptance bar: 16 concurrent sessions over distinct tenant
  // databases, every recommendation bit-identical to a dedicated serial
  // run. Workload tuning exercises the full search (and only estimate
  // paths, so the comparison is exact by construction if and only if no
  // tenant state leaks).
  CustomerProfile prof;
  prof.num_tables = 4;
  prof.min_rows = 200;
  prof.max_rows = 1500;
  prof.num_queries = 6;
  prof.max_joins = 2;

  auto service = std::move(
      TuningService::Create({.job_runners = 8, .max_queued_jobs = 64})
          .value());
  constexpr int kSessions = 16;
  std::vector<std::unique_ptr<BenchmarkDatabase>> dbs;
  std::vector<Session*> sessions;
  std::vector<std::shared_ptr<TuningJob>> jobs;
  for (int i = 0; i < kSessions; ++i) {
    dbs.push_back(BuildCustomer("svc16_" + std::to_string(i), prof,
                                1000 + static_cast<uint64_t>(i)));
    SessionOptions so =
        SessOpts("tenant-" + std::to_string(i), dbs.back().get(), i);
    so.priority = 1 + i % 3;
    sessions.push_back(service->CreateSession(so).value());
  }
  for (int i = 0; i < kSessions; ++i) {
    std::vector<WorkloadQuery> wl;
    for (const QuerySpec& q : dbs[i]->queries()) {
      wl.push_back(WorkloadQuery{q, 1.0});
    }
    jobs.push_back(
        sessions[i]->TuneWorkload(wl, dbs[i]->initial_config()).value());
  }
  for (int i = 0; i < kSessions; ++i) {
    jobs[i]->Wait();
    ASSERT_EQ(jobs[i]->phase(), JobPhase::kDone)
        << i << ": " << jobs[i]->status().ToString();
  }
  for (int i = 0; i < kSessions; ++i) {
    auto ref = BuildCustomer("svc16_" + std::to_string(i), prof,
                             1000 + static_cast<uint64_t>(i));
    std::vector<WorkloadQuery> wl;
    for (const QuerySpec& q : ref->queries()) {
      wl.push_back(WorkloadQuery{q, 1.0});
    }
    CandidateGenerator gen(ref->db(), ref->stats());
    WorkloadLevelTuner tuner(ref->db(), ref->what_if(), &gen,
                             WorkloadLevelTuner::Options());
    OptimizerComparator cmp(ComparatorOptions{0.0, 0.2});
    const WorkloadTuningResult expect =
        tuner.Tune(wl, ref->initial_config(), cmp);
    const WorkloadTuningResult& got = jobs[i]->outputs().workload;
    EXPECT_EQ(got.recommended.Fingerprint(), expect.recommended.Fingerprint())
        << "tenant " << i << " diverged";
    EXPECT_EQ(StrFormat("%.17g", got.final_est_cost),
              StrFormat("%.17g", expect.final_est_cost));
  }
  EXPECT_GT(service->cache_domain().num_lookups(), 0);
}

}  // namespace
}  // namespace aimai
