// Service-level fault-tolerance tests (PR 6): the job watchdog
// (deadline + stall escalation, retry-or-fail through the accounted
// retry budget), the crash-safe checkpoint journal (atomic writes,
// recovery after a crash between write and rename, quarantine of
// checksum-corrupt entries), tenant fault isolation (one session's
// failures trip only its own breaker; other sessions stay
// bit-identical), validated model hot-swap with drift-driven automatic
// rollback, and the deterministic chaos harness whose accounting
// equation — recovered + quarantined + shed == injected — must balance.
// Runs under ASan and TSan via scripts/check.sh (ctest -L resilience).

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/serialize.h"
#include "common/string_util.h"
#include "models/labeler.h"
#include "robustness/atomic_file.h"
#include "service/resilience/chaos.h"
#include "service/service.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

namespace fs = std::filesystem;

constexpr int kImp = static_cast<int>(PairLabel::kImprovement);
constexpr int kReg = static_cast<int>(PairLabel::kRegression);

/// Fresh, empty per-test scratch directory under the gtest temp root.
std::string ScratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("aimai_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

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

/// Predicts one fixed class regardless of input.
class FixedClassifier : public Classifier {
 public:
  explicit FixedClassifier(int label) : label_(label) { num_classes_ = 3; }
  void Fit(const Dataset&) override {}
  void PredictProbaInto(const double*, double* out) const override {
    out[0] = out[1] = out[2] = 0.0;
    out[label_] = 1.0;
  }

 private:
  const int label_;
};

/// Predicts kRegression when x[0] > 0.5, kImprovement otherwise — gives
/// the holdout-gate tests exact control over miss rate and accuracy.
class ThresholdClassifier : public Classifier {
 public:
  ThresholdClassifier() { num_classes_ = 3; }
  void Fit(const Dataset&) override {}
  void PredictProbaInto(const double* x, double* out) const override {
    out[0] = out[1] = out[2] = 0.0;
    out[x[0] > 0.5 ? kReg : kImp] = 1.0;
  }
};

PairFeaturizer Fz() {
  return PairFeaturizer({Channel::kEstNodeCost},
                        PairCombine::kPairDiffNormalized);
}

/// Balanced 1-d holdout the ThresholdClassifier labels perfectly and the
/// FixedClassifier(kImp) misses every regression of.
Dataset MakeHoldout() {
  Dataset holdout(1);
  holdout.Add({0.0}, kImp);
  holdout.Add({0.2}, kImp);
  holdout.Add({0.9}, kReg);
  holdout.Add({1.0}, kReg);
  return holdout;
}

// --- Cancellation heartbeat ------------------------------------------------

TEST(CancellationHeartbeatTest, PeekDoesNotCountAsLiveness) {
  // The watchdog's stall detector reads the poll counter as a heartbeat;
  // cancel_requested() must observe without beating, or a wedged loop
  // that merely checks for rescue would look alive forever.
  CancellationToken token;
  EXPECT_EQ(token.polls(), 0);
  EXPECT_FALSE(token.cancel_requested());
  EXPECT_FALSE(token.cancel_requested());
  EXPECT_EQ(token.polls(), 0);
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.polls(), 1);
  token.RequestCancel();
  EXPECT_TRUE(token.cancel_requested());
  EXPECT_TRUE(token.cancelled());
}

// --- Watchdog (deterministic stepping, no service) -------------------------

TEST(WatchdogTest, EscalatesOverdueAttemptOncePerAttempt) {
  JobQueue queue(8);
  auto job = std::make_shared<TuningJob>(1, JobType::kQueryTuning, nullptr,
                                         "tenant", 1);
  job->set_deadline_ms(5);
  job->set_max_attempts(2);
  ASSERT_TRUE(queue.Push(job).ok());
  ASSERT_EQ(queue.Claim().get(), job.get());
  job->MarkRunning();

  JobWatchdog::Options wopts;
  wopts.poll_ms = 1;
  JobWatchdog watchdog(&queue, wopts);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watchdog.ScanOnce();
  EXPECT_TRUE(job->timed_out());
  EXPECT_TRUE(job->token()->cancel_requested());
  EXPECT_EQ(watchdog.timeouts(), 1);

  // The same attempt is never escalated twice.
  watchdog.ScanOnce();
  EXPECT_EQ(watchdog.timeouts(), 1);

  // A retried attempt gets a fresh token, a fresh clock, and its own
  // escalation.
  ASSERT_TRUE(job->PrepareRetry());
  EXPECT_EQ(job->attempt(), 2);
  EXPECT_FALSE(job->timed_out());
  EXPECT_FALSE(job->token()->cancel_requested());
  job->MarkRunning();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  watchdog.ScanOnce();
  EXPECT_TRUE(job->timed_out());
  EXPECT_EQ(watchdog.timeouts(), 2);
  EXPECT_EQ(watchdog.stalls(), 0);
}

TEST(WatchdogTest, StallDetectionSparesAPollingJob) {
  JobQueue queue(8);
  auto job = std::make_shared<TuningJob>(7, JobType::kQueryTuning, nullptr,
                                         "tenant", 1);
  // No deadline: only the heartbeat can escalate this job.
  ASSERT_TRUE(queue.Push(job).ok());
  ASSERT_EQ(queue.Claim().get(), job.get());
  job->MarkRunning();

  JobWatchdog::Options wopts;
  wopts.poll_ms = 1;
  wopts.stall_timeout_ms = 20;
  JobWatchdog watchdog(&queue, wopts);

  // A job that keeps polling its token is alive, no matter how long it
  // runs.
  watchdog.ScanOnce();  // Baseline.
  for (int i = 0; i < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    (void)job->token()->cancelled();  // Heartbeat.
    watchdog.ScanOnce();
  }
  EXPECT_EQ(watchdog.timeouts(), 0);
  EXPECT_FALSE(job->timed_out());

  // Stop beating: the next quiet window is declared a stall.
  watchdog.ScanOnce();  // Re-baseline at the current poll count.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  watchdog.ScanOnce();
  EXPECT_TRUE(job->timed_out());
  EXPECT_EQ(watchdog.timeouts(), 1);
  EXPECT_EQ(watchdog.stalls(), 1);
}

// --- Atomic file replacement ----------------------------------------------

TEST(AtomicFileTest, ReplaceIsAllOrNothingAndTempsAreCleaned) {
  const std::string dir = ScratchDir("atomic_file");
  const std::string path = dir + "/target.dat";

  ASSERT_TRUE(WriteFileAtomic(path, "first payload").ok());
  std::string got;
  ASSERT_TRUE(ReadFileToString(path, &got).ok());
  EXPECT_EQ(got, "first payload");

  ASSERT_TRUE(WriteFileAtomic(path, "second payload").ok());
  ASSERT_TRUE(ReadFileToString(path, &got).ok());
  EXPECT_EQ(got, "second payload");
  // No temp siblings survive a successful write.
  EXPECT_EQ(RemoveStaleTempFiles(dir), 0);

  // A crash between write and rename leaves a *.tmp.* orphan; cleanup
  // removes it and leaves the real file alone.
  { std::ofstream(dir + "/target.dat.tmp.777") << "half-writ"; }
  EXPECT_EQ(RemoveStaleTempFiles(dir), 1);
  EXPECT_FALSE(fs::exists(dir + "/target.dat.tmp.777"));
  ASSERT_TRUE(ReadFileToString(path, &got).ok());
  EXPECT_EQ(got, "second payload");
}

// --- Checkpoint journal ----------------------------------------------------

TEST(JournalTest, RecoversLastGoodEntryAfterCrashBetweenWriteAndRename) {
  const std::string dir = ScratchDir("journal_crash");
  {
    CheckpointJournal journal({dir, 8});
    ASSERT_TRUE(journal.Append("alpha").ok());
    ASSERT_TRUE(journal.Append("beta").ok());
  }

  // Simulated crash while appending entry 3: the atomic write died
  // between write and rename (a temp orphan), and a separately corrupted
  // entry 3 landed with a checksum that no longer matches its payload.
  { std::ofstream(dir + "/journal-00000003.ckpt.tmp.42") << "orphan"; }
  {
    std::ostringstream frame;
    const std::string payload = "gamma";
    frame << "aimai-ckpt-journal 1 3 " << payload.size() << ' ' << std::hex
          << Fnv1a64(payload) << std::dec << '\n'
          << "gamXa";  // Same length, different bytes: checksum mismatch.
    std::ofstream(dir + "/journal-00000003.ckpt") << frame.str();
  }

  CheckpointJournal recovered({dir, 8});
  // The sequence resumes past everything on disk, even the bad entry.
  EXPECT_EQ(recovered.next_seq(), 4);

  StatusOr<CheckpointJournal::Entry> latest = recovered.RecoverLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().seq, 2);
  EXPECT_EQ(latest.value().payload, "beta");
  EXPECT_EQ(recovered.quarantined(), 1);
  EXPECT_TRUE(fs::exists(dir + "/journal-00000003.ckpt.quarantined"));
  EXPECT_FALSE(fs::exists(dir + "/journal-00000003.ckpt"));
  EXPECT_FALSE(fs::exists(dir + "/journal-00000003.ckpt.tmp.42"));

  // The recovered journal keeps appending where the crash left off.
  StatusOr<int64_t> seq = recovered.Append("delta");
  ASSERT_TRUE(seq.ok());
  EXPECT_EQ(seq.value(), 4);
  latest = recovered.RecoverLatest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().payload, "delta");
}

TEST(JournalTest, TornWriteIsCaughtByChecksumAndQuarantined) {
  const std::string dir = ScratchDir("journal_torn");
  CheckpointJournal journal({dir, 8});
  ASSERT_TRUE(journal.Append("the good entry").ok());

  // The injected tear lands half the frame at the final path and still
  // reports success — exactly what a crashed process looks like.
  FaultInjector faults(7);
  faults.FailNext(FaultPoint::kTornCheckpointWrite, 1);
  ASSERT_TRUE(journal.Append(std::string(256, 'x'), &faults).ok());
  EXPECT_EQ(faults.injected(FaultPoint::kTornCheckpointWrite), 1);

  EXPECT_EQ(journal.VerifyAll(), 1);
  EXPECT_EQ(journal.quarantined(), 1);
  StatusOr<CheckpointJournal::Entry> latest = journal.RecoverLatest();
  ASSERT_TRUE(latest.ok()) << latest.status().ToString();
  EXPECT_EQ(latest.value().payload, "the good entry");
}

TEST(JournalTest, PrunesBeyondRetentionAndFailsCleanlyWhenEmpty) {
  const std::string dir = ScratchDir("journal_prune");
  CheckpointJournal journal({dir, 2});
  EXPECT_EQ(journal.RecoverLatest().status().code(),
            StatusCode::kFailedPrecondition);
  for (const char* payload : {"a", "b", "c", "d"}) {
    ASSERT_TRUE(journal.Append(payload).ok());
  }
  int entry_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ckpt") ++entry_files;
  }
  EXPECT_EQ(entry_files, 2);
  EXPECT_EQ(journal.entries_appended(), 4);
  StatusOr<CheckpointJournal::Entry> latest = journal.RecoverLatest();
  ASSERT_TRUE(latest.ok());
  EXPECT_EQ(latest.value().payload, "d");
}

// --- Validated model publish + rollback ------------------------------------

TEST(ModelRegistryTest, HoldoutGateRejectsRegressionMissingModels) {
  ModelRegistry registry;
  const Dataset holdout = MakeHoldout();
  PublishGate gate;
  gate.max_regression_miss_rate = 0.5;

  // Misses 100% of true regressions: the one error class the paper's
  // premise says must stay bounded.
  StatusOr<int> rejected = registry.PublishValidated(
      "m", std::make_shared<FixedClassifier>(kImp), Fz(), holdout, gate);
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.publish_rejections(), 1);
  EXPECT_EQ(registry.Snapshot("m"), nullptr);

  // Catches every regression but labels everything regression: fails an
  // accuracy floor instead.
  PublishGate strict = gate;
  strict.min_accuracy = 0.9;
  rejected = registry.PublishValidated(
      "m", std::make_shared<FixedClassifier>(kReg), Fz(), holdout, strict);
  EXPECT_EQ(rejected.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(registry.publish_rejections(), 2);

  // A model that separates the holdout passes and becomes version 1.
  StatusOr<int> published = registry.PublishValidated(
      "m", std::make_shared<ThresholdClassifier>(), Fz(), holdout, strict);
  ASSERT_TRUE(published.ok()) << published.status().ToString();
  EXPECT_EQ(published.value(), 1);
  ASSERT_NE(registry.Snapshot("m"), nullptr);
  EXPECT_EQ(registry.Snapshot("m")->version, 1);
}

TEST(ModelRegistryTest, DriftTriggersAutomaticRollbackToPriorSnapshot) {
  ModelRegistry registry;
  const Dataset holdout = MakeHoldout();
  PublishGate gate;
  gate.drift_min_observations = 4;
  gate.drift_regression_rate = 0.4;

  auto v1_classifier = std::make_shared<ThresholdClassifier>();
  auto v2_classifier = std::make_shared<ThresholdClassifier>();
  ASSERT_EQ(registry.PublishValidated("m", v1_classifier, Fz(), holdout, gate)
                .value(),
            1);
  ASSERT_EQ(registry.PublishValidated("m", v2_classifier, Fz(), holdout, gate)
                .value(),
            2);
  EXPECT_EQ(registry.num_swaps(), 1);

  // Stale-version outcomes never count against the current version.
  registry.ReportOutcome("m", 1, true);
  EXPECT_EQ(registry.rollbacks(), 0);

  // Sessions report post-publish outcomes; once the window is full and
  // the regression rate crosses the gate, the registry rolls back on its
  // own — republishing the prior snapshot as a NEW version, so readers
  // hot-swap forward.
  registry.ReportOutcome("m", 2, true);
  registry.ReportOutcome("m", 2, true);
  registry.ReportOutcome("m", 2, false);
  EXPECT_EQ(registry.rollbacks(), 0);  // Window not yet full.
  registry.ReportOutcome("m", 2, true);
  EXPECT_EQ(registry.rollbacks(), 1);

  std::shared_ptr<const ModelSnapshot> snap = registry.Snapshot("m");
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, 3);
  EXPECT_EQ(snap->classifier.get(), v1_classifier.get());

  // The rolled-back-from version can never become a rollback target, and
  // late outcomes against it are ignored.
  EXPECT_EQ(registry.Rollback("m").code(), StatusCode::kFailedPrecondition);
  for (int i = 0; i < 8; ++i) registry.ReportOutcome("m", 2, true);
  EXPECT_EQ(registry.rollbacks(), 1);
  // The restored version is not drift-armed (it was not re-validated).
  for (int i = 0; i < 8; ++i) registry.ReportOutcome("m", 3, true);
  EXPECT_EQ(registry.rollbacks(), 1);
  EXPECT_EQ(registry.Snapshot("m")->version, 3);
}

TEST(ModelRegistryTest, InjectedPublishFailureIsRetryable) {
  ModelRegistry registry;
  const Dataset holdout = MakeHoldout();
  FaultInjector faults(3);
  faults.FailNext(FaultPoint::kModelPublishFailure, 1);

  auto classifier = std::make_shared<ThresholdClassifier>();
  StatusOr<int> failed = registry.PublishValidated(
      "m", classifier, Fz(), holdout, PublishGate(), &faults);
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(failed.status().retryable());
  EXPECT_EQ(registry.publish_failures(), 1);
  EXPECT_EQ(registry.Snapshot("m"), nullptr);

  StatusOr<int> retried = registry.PublishValidated(
      "m", classifier, Fz(), holdout, PublishGate(), &faults);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(retried.value(), 1);
}

// --- Watchdog + retry through the live service -----------------------------

TEST(ResilientServiceTest, WatchdogRescuesInjectedStallThroughRetry) {
  FaultInjector faults(11);
  faults.FailNext(FaultPoint::kJobStall, 1);
  RetryOptions retry;
  retry.max_attempts = 2;
  auto service = std::move(
      TuningService::Create({.watchdog_poll_ms = 10,
                             .job_stall_timeout_ms = 300,
                             .job_retry = retry,
                             .faults = &faults})
          .value());
  ASSERT_NE(service->watchdog(), nullptr);

  auto bdb = BuildTpchLike("res_stall", 1, 0.9, 71);
  Session* session =
      service->CreateSession(SessOpts("tenant", bdb.get(), 0)).value();
  auto job = session->TuneQuery(bdb->queries()[0], {}).value();
  job->Wait();

  // Attempt 1 wedged without a heartbeat, the watchdog escalated it as a
  // stall, and attempt 2 finished the work — with the same answer a
  // fault-free dedicated run produces.
  ASSERT_EQ(job->phase(), JobPhase::kDone) << job->status().ToString();
  EXPECT_EQ(job->attempt(), 2);
  EXPECT_EQ(job->fault_events(), 1);
  EXPECT_GE(service->watchdog()->timeouts(), 1);
  EXPECT_GE(service->watchdog()->stalls(), 1);
  EXPECT_EQ(service->jobs_retried(), 1);
  EXPECT_EQ(service->faults_recovered(), 1);
  EXPECT_EQ(service->faults_lost(), 0);

  auto ref = BuildTpchLike("res_stall", 1, 0.9, 71);
  CandidateGenerator gen(ref->db(), ref->stats());
  QueryLevelTuner tuner(ref->db(), ref->what_if(), &gen,
                        QueryLevelTuner::Options());
  OptimizerComparator cmp(ComparatorOptions{0.0, 0.2});
  EXPECT_EQ(QueryResultKey(job->outputs().query),
            QueryResultKey(tuner.Tune(ref->queries()[0], {}, cmp)));
}

TEST(ResilientServiceTest, ExhaustedRetryBudgetEndsTimedOutAndShed) {
  FaultInjector faults(13);
  faults.FailNext(FaultPoint::kJobStall, 2);  // Every attempt stalls.
  RetryOptions retry;
  retry.max_attempts = 2;
  auto service = std::move(
      TuningService::Create({.watchdog_poll_ms = 10,
                             .job_stall_timeout_ms = 200,
                             .job_retry = retry,
                             .faults = &faults})
          .value());

  auto bdb = BuildTpchLike("res_shed", 1, 0.9, 72);
  Session* session =
      service->CreateSession(SessOpts("tenant", bdb.get(), 0)).value();
  auto job = session->TuneQuery(bdb->queries()[0], {}).value();
  job->Wait();

  EXPECT_EQ(job->phase(), JobPhase::kTimedOut);
  EXPECT_EQ(job->status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(job->attempt(), 2);
  EXPECT_EQ(job->fault_events(), 2);
  EXPECT_EQ(service->jobs_retried(), 1);
  EXPECT_EQ(service->faults_recovered(), 0);
  EXPECT_EQ(service->faults_lost(), 2);
}

// --- Tenant fault isolation ------------------------------------------------

TEST(ResilientServiceTest, QuarantinedTenantLeavesOthersBitIdentical) {
  CircuitBreaker::Options breaker;
  breaker.failure_threshold = 2;
  breaker.cooldown_calls = 2;
  breaker.half_open_successes = 1;
  auto service = std::move(
      TuningService::Create({.session_breaker = breaker}).value());

  auto bdb = BuildTpchLike("res_iso", 1, 0.9, 73);
  Session* healthy =
      service->CreateSession(SessOpts("healthy", bdb.get(), 0)).value();
  SessionOptions faulty_opts = SessOpts("faulty", bdb.get(), 0);
  faulty_opts.model = "not-yet-published";  // Every job fails at start.
  Session* faulty = service->CreateSession(faulty_opts).value();

  // Dedicated single-tenant reference for the healthy tenant.
  auto ref = BuildTpchLike("res_iso", 1, 0.9, 73);
  CandidateGenerator gen(ref->db(), ref->stats());
  QueryLevelTuner tuner(ref->db(), ref->what_if(), &gen,
                        QueryLevelTuner::Options());
  OptimizerComparator cmp(ComparatorOptions{0.0, 0.2});

  auto run_faulty = [&] {
    auto job = faulty->TuneQuery(bdb->queries()[0], {}).value();
    job->Wait();
    return job;
  };
  auto check_healthy = [&](size_t qi) {
    auto job = healthy->TuneQuery(bdb->queries()[qi], {}).value();
    job->Wait();
    ASSERT_EQ(job->phase(), JobPhase::kDone) << job->status().ToString();
    EXPECT_EQ(QueryResultKey(job->outputs().query),
              QueryResultKey(tuner.Tune(ref->queries()[qi], {}, cmp)));
  };

  // Two real failures trip the faulty tenant's own breaker...
  EXPECT_EQ(run_faulty()->status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(faulty->health().health(), SessionHealth::kHealthy);
  check_healthy(0);
  EXPECT_EQ(run_faulty()->status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(faulty->health().health(), SessionHealth::kQuarantined);
  EXPECT_EQ(faulty->health().trips(), 1);
  check_healthy(1);

  // ...after which its jobs are rejected before touching anything shared.
  auto rejected = run_faulty();
  EXPECT_EQ(rejected->phase(), JobPhase::kFailed);
  EXPECT_EQ(rejected->status().code(), StatusCode::kUnavailable);
  EXPECT_GE(faulty->health().fast_rejections(), 1);
  check_healthy(2);

  // Fix the tenant's fault (publish its model); the deterministic
  // cooldown lets a probe through, one success recovers it.
  service->models().Publish("not-yet-published",
                            std::make_shared<FixedClassifier>(kImp), Fz());
  std::shared_ptr<TuningJob> job;
  for (int i = 0; i < breaker.cooldown_calls + 1; ++i) job = run_faulty();
  EXPECT_EQ(job->phase(), JobPhase::kDone) << job->status().ToString();
  EXPECT_EQ(faulty->health().health(), SessionHealth::kHealthy);
  EXPECT_EQ(faulty->health().recoveries(), 1);

  // The healthy tenant never noticed any of it.
  check_healthy(3);
}

// --- Chaos harness ---------------------------------------------------------

TEST(ChaosTest, EveryInjectedFaultIsAccountedFor) {
  uint64_t seed = 1;
  if (const char* env_seed = std::getenv("AIMAI_CHAOS_SEED")) {
    seed = std::strtoull(env_seed, nullptr, 10);
  }

  auto db_a = BuildTpchLike("res_chaos_a", 1, 0.9, 81);
  auto db_b = BuildTpchLike("res_chaos_b", 1, 0.5, 82);
  std::vector<ChaosTenant> tenants(2);
  tenants[0].session = SessOpts("tenant-a", db_a.get(), 0);
  tenants[0].session.model = "chaos-model";
  tenants[0].session.iterations = 6;
  tenants[0].query = db_a->queries()[0];
  tenants[1].session = SessOpts("tenant-b", db_b.get(), 1);
  tenants[1].session.model = "chaos-model";
  tenants[1].session.iterations = 6;
  tenants[1].query = db_b->queries()[0];

  PublishGate gate;
  gate.max_regression_miss_rate = 1.0;
  gate.drift_min_observations = 1 << 20;  // No drift rollback mid-chaos.
  Dataset holdout(1);
  holdout.Add({0.0}, kImp);
  holdout.Add({0.1}, kImp);
  ChaosModelSpec model{"chaos-model", std::make_shared<FixedClassifier>(kImp),
                       Fz(), holdout, gate};

  ChaosOptions options;
  options.seed = seed;
  options.journal_dir = ScratchDir("chaos_journal");
  // Generous stall window: under sanitizers an honest round can be slow,
  // and only the *injected* stall should ever be escalated.
  options.stall_timeout_ms = 1000;
  options.watchdog_poll_ms = 5;

  StatusOr<ChaosReport> result = RunChaos(options, std::move(tenants), &model);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ChaosReport& report = result.value();

  // The accounting equation must balance: every fired injection ended up
  // recovered, quarantined, or shed — nothing vanished.
  EXPECT_TRUE(report.accounted()) << report.ToString();
  // No job is left non-terminal (nothing stuck past its deadline).
  EXPECT_TRUE(report.all_jobs_terminal) << report.ToString();
  EXPECT_EQ(report.jobs_submitted, 4) << report.ToString();
  // The torn write and the publish failure are forced to fire; crashes
  // and stalls fire against the actual job stream.
  EXPECT_GE(report.injected, 2) << report.ToString();
  EXPECT_EQ(report.quarantined, 1) << report.ToString();
  EXPECT_GE(report.journal_entries, 1) << report.ToString();
}

}  // namespace
}  // namespace aimai
