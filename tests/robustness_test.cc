// Fault-injection and resilience tests: deterministic fault schedules,
// retry/backoff bounds, circuit-breaker transitions, corrupt-repository
// round trips (skip-and-count, never crash), and a ContinuousTuner run
// that completes under injected execution failures, what-if timeouts, and
// corrupted telemetry with verified reverts and accurate stats.

#include <gtest/gtest.h>

#include <sstream>

#include "common/status.h"
#include "models/repository_io.h"
#include "robustness/circuit_breaker.h"
#include "robustness/fault_injector.h"
#include "robustness/retry_policy.h"
#include "tuner/continuous_tuner.h"
#include "workloads/collection.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, CodesMessagesAndRetryability) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status s = Status::DataLoss("bad checksum");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(s.retryable());
  EXPECT_EQ(s.ToString(), "DATA_LOSS: bad checksum");
  EXPECT_TRUE(Status::Unavailable("flaky").retryable());
  EXPECT_TRUE(Status::DeadlineExceeded("slow").retryable());
  EXPECT_FALSE(Status::InvalidArgument("nope").retryable());
}

TEST(StatusTest, StatusOrHoldsMoveOnlyValues) {
  StatusOr<std::unique_ptr<int>> ok(std::make_unique<int>(7));
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(**ok, 7);
  std::unique_ptr<int> taken = std::move(ok).value();
  EXPECT_EQ(*taken, 7);
  StatusOr<std::unique_ptr<int>> err(Status::Unavailable("gone"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kUnavailable);
}

// ---------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, DisabledInjectorNeverFails) {
  FaultInjector inj;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(inj.ShouldFail(FaultPoint::kQueryExecution));
  }
  EXPECT_EQ(inj.total_injected(), 0);
}

TEST(FaultInjectorTest, SameSeedSameSchedule) {
  FaultInjector a(42), b(42);
  for (FaultInjector* inj : {&a, &b}) {
    inj->set_probability(FaultPoint::kQueryExecution, 0.3);
    inj->set_probability(FaultPoint::kWhatIfTimeout, 0.1);
  }
  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(a.ShouldFail(FaultPoint::kQueryExecution),
              b.ShouldFail(FaultPoint::kQueryExecution));
    ASSERT_EQ(a.ShouldFail(FaultPoint::kWhatIfTimeout),
              b.ShouldFail(FaultPoint::kWhatIfTimeout));
  }
  EXPECT_EQ(a.injected(FaultPoint::kQueryExecution),
            b.injected(FaultPoint::kQueryExecution));
  EXPECT_GT(a.injected(FaultPoint::kQueryExecution), 0);
}

TEST(FaultInjectorTest, PointStreamsAreIndependent) {
  // Consulting one point must not perturb another's schedule.
  FaultInjector a(7), b(7);
  a.set_probability(FaultPoint::kQueryExecution, 0.25);
  b.set_probability(FaultPoint::kQueryExecution, 0.25);
  b.set_probability(FaultPoint::kCostNoiseSpike, 0.5);
  std::vector<bool> sa, sb;
  for (int i = 0; i < 200; ++i) {
    sa.push_back(a.ShouldFail(FaultPoint::kQueryExecution));
    sb.push_back(b.ShouldFail(FaultPoint::kQueryExecution));
    b.ShouldFail(FaultPoint::kCostNoiseSpike);  // Interleaved traffic.
  }
  EXPECT_EQ(sa, sb);
}

TEST(FaultInjectorTest, FailNextForcesExactFailureCount) {
  FaultInjector inj(1);
  inj.FailNext(FaultPoint::kQueryExecution, 2);
  EXPECT_TRUE(inj.ShouldFail(FaultPoint::kQueryExecution));
  EXPECT_TRUE(inj.ShouldFail(FaultPoint::kQueryExecution));
  EXPECT_FALSE(inj.ShouldFail(FaultPoint::kQueryExecution));
  EXPECT_EQ(inj.injected(FaultPoint::kQueryExecution), 2);
}

TEST(FaultInjectorTest, SpikeFactorIsOneWithoutFault) {
  FaultInjector inj(3);
  EXPECT_EQ(inj.SpikeFactor(FaultPoint::kCostNoiseSpike), 1.0);
  inj.FailNext(FaultPoint::kCostNoiseSpike, 1);
  const double f = inj.SpikeFactor(FaultPoint::kCostNoiseSpike, 2.0, 8.0);
  EXPECT_GE(f, 2.0);
  EXPECT_LE(f, 8.0);
}

// ------------------------------------------------------------ RetryPolicy

TEST(RetryPolicyTest, SucceedsFirstTryWithoutBackoff) {
  RetryPolicy policy(RetryOptions{});
  const auto out = policy.Run([]() { return Status::Ok(); });
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(out.total_backoff_ms, 0.0);
}

TEST(RetryPolicyTest, RetriesRetryableUpToMaxAttempts) {
  RetryOptions o;
  o.max_attempts = 4;
  RetryPolicy policy(o);
  int calls = 0;
  const auto out = policy.Run([&]() {
    ++calls;
    return Status::Unavailable("down");
  });
  EXPECT_FALSE(out.status.ok());
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(out.attempts, 4);
  EXPECT_GT(out.total_backoff_ms, 0.0);
}

TEST(RetryPolicyTest, DoesNotRetryNonRetryable) {
  RetryPolicy policy(RetryOptions{});
  int calls = 0;
  const auto out = policy.Run([&]() {
    ++calls;
    return Status::DataLoss("corrupt");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(out.status.code(), StatusCode::kDataLoss);
}

TEST(RetryPolicyTest, RecoversAfterTransientFailures) {
  RetryOptions o;
  o.max_attempts = 5;
  RetryPolicy policy(o);
  int calls = 0;
  const auto out = policy.Run([&]() {
    return ++calls < 3 ? Status::Unavailable("blip") : Status::Ok();
  });
  EXPECT_TRUE(out.status.ok());
  EXPECT_EQ(out.attempts, 3);
}

TEST(RetryPolicyTest, BackoffGrowsExponentiallyWithinBoundsAndJitter) {
  RetryOptions o;
  o.initial_backoff_ms = 10;
  o.backoff_multiplier = 2.0;
  o.max_backoff_ms = 50;
  o.jitter_fraction = 0.2;
  Rng rng(11);
  RetryPolicy policy(o, &rng);
  // Nominal waits: 10, 20, 40, 50 (clamped), 50...
  for (int k = 1; k <= 6; ++k) {
    const double nominal = std::min(10.0 * std::pow(2.0, k - 1), 50.0);
    const double wait = policy.BackoffMs(k);
    EXPECT_GE(wait, nominal * 0.8) << "retry " << k;
    EXPECT_LE(wait, nominal * 1.2) << "retry " << k;
  }
  // Deterministic given the same rng seed.
  Rng r1(99), r2(99);
  RetryPolicy p1(o, &r1), p2(o, &r2);
  for (int k = 1; k <= 4; ++k) EXPECT_EQ(p1.BackoffMs(k), p2.BackoffMs(k));
}

TEST(RetryPolicyTest, TotalBackoffBudgetStopsRetrying) {
  RetryOptions o;
  o.max_attempts = 100;
  o.initial_backoff_ms = 10;
  o.backoff_multiplier = 1.0;
  o.jitter_fraction = 0;
  o.total_backoff_budget_ms = 35;  // Room for 3 waits of 10ms.
  RetryPolicy policy(o);
  int calls = 0;
  const auto out = policy.Run([&]() {
    ++calls;
    return Status::Unavailable("down");
  });
  EXPECT_EQ(calls, 4);  // Initial + 3 funded retries.
  EXPECT_EQ(out.status.code(), StatusCode::kResourceExhausted);
  EXPECT_LE(out.total_backoff_ms, 35.0);
}

// ---------------------------------------------------------- CircuitBreaker

TEST(CircuitBreakerTest, OpenHalfOpenCloseTransitions) {
  CircuitBreaker::Options o;
  o.failure_threshold = 3;
  o.cooldown_calls = 4;
  o.half_open_successes = 2;
  CircuitBreaker cb(o);

  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  // Interleaved success resets the consecutive-failure count.
  cb.RecordFailure();
  cb.RecordFailure();
  cb.RecordSuccess();
  cb.RecordFailure();
  cb.RecordFailure();
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  cb.RecordFailure();  // Third consecutive: trips.
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.trips(), 1);

  // Cooldown: exactly `cooldown_calls` denied calls, then probes allowed.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(cb.Allow());
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(cb.Allow());
  cb.RecordSuccess();
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(cb.Allow());
  cb.RecordSuccess();
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(cb.recoveries(), 1);
}

TEST(CircuitBreakerTest, FailedProbeReopens) {
  CircuitBreaker::Options o;
  o.failure_threshold = 1;
  o.cooldown_calls = 2;
  o.half_open_successes = 1;
  CircuitBreaker cb(o);
  cb.RecordFailure();
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_FALSE(cb.Allow());
  EXPECT_FALSE(cb.Allow());
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
  cb.RecordFailure();  // Probe fails: back to open, full cooldown again.
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(cb.trips(), 2);
  EXPECT_FALSE(cb.Allow());
  EXPECT_FALSE(cb.Allow());
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kHalfOpen);
  cb.RecordSuccess();
  EXPECT_EQ(cb.state(), CircuitBreaker::State::kClosed);
}

// ------------------------------------------------------- Telemetry I/O

class RepositoryRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bdb_ = BuildTpchLike("robust_io", 1, 0.9, 17);
    CollectionOptions copts;
    copts.configs_per_query = 2;
    CollectExecutionData(bdb_.get(), 0, copts, &repo_);
    ASSERT_GT(repo_.num_plans(), 20u);
  }
  std::unique_ptr<BenchmarkDatabase> bdb_;
  ExecutionDataRepository repo_;
};

TEST_F(RepositoryRobustnessTest, InjectedWriteCorruptionIsSkippedOnLoad) {
  FaultInjector faults(5);
  faults.FailNext(FaultPoint::kTelemetryCorruption, 3);
  std::stringstream ss;
  ASSERT_TRUE(SaveRepository(&ss, repo_, &faults).ok());

  ExecutionDataRepository loaded;
  RepositoryLoadStats stats;
  const Status st = LoadRepository(&ss, &loaded, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.records_expected, repo_.num_plans());
  EXPECT_EQ(stats.records_skipped, 3u);
  EXPECT_EQ(stats.records_loaded, repo_.num_plans() - 3);
  EXPECT_FALSE(stats.truncated);
  EXPECT_EQ(loaded.num_plans(), repo_.num_plans() - 3);
}

TEST_F(RepositoryRobustnessTest, ManualByteFlipIsDetectedAndSkipped) {
  std::stringstream ss;
  ASSERT_TRUE(SaveRepository(&ss, repo_).ok());
  std::string bytes = ss.str();
  // Flip one byte inside the first record's checksummed payload.
  const size_t rec = bytes.find("rec ");
  ASSERT_NE(rec, std::string::npos);
  const size_t colon = bytes.find(':', rec);
  ASSERT_NE(colon, std::string::npos);
  bytes[colon + 10] ^= 0x40;

  std::istringstream in(bytes);
  ExecutionDataRepository loaded;
  RepositoryLoadStats stats;
  const Status st = LoadRepository(&in, &loaded, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.records_skipped, 1u);
  EXPECT_EQ(loaded.num_plans(), repo_.num_plans() - 1);
}

TEST_F(RepositoryRobustnessTest, ProbabilisticCorruptionRoundTrip) {
  // The acceptance scenario: ~5% of telemetry records corrupted in
  // transit; the loader keeps everything else and counts the losses.
  FaultInjector faults(23);
  faults.set_probability(FaultPoint::kTelemetryCorruption, 0.05);
  std::stringstream ss;
  ASSERT_TRUE(SaveRepository(&ss, repo_, &faults).ok());
  const int64_t corrupted =
      faults.injected(FaultPoint::kTelemetryCorruption);

  ExecutionDataRepository loaded;
  RepositoryLoadStats stats;
  ASSERT_TRUE(LoadRepository(&ss, &loaded, &stats).ok());
  EXPECT_EQ(stats.records_skipped, static_cast<uint64_t>(corrupted));
  EXPECT_EQ(stats.records_loaded + stats.records_skipped,
            stats.records_expected);
  EXPECT_EQ(loaded.num_plans(), repo_.num_plans() -
                                    static_cast<size_t>(corrupted));
  // Surviving records are intact and usable downstream.
  for (size_t i = 0; i < loaded.num_plans(); ++i) {
    ASSERT_NE(loaded.plan(static_cast<int>(i)).plan, nullptr);
    EXPECT_GT(loaded.plan(static_cast<int>(i)).exec_cost, 0);
  }
}

TEST_F(RepositoryRobustnessTest, TruncatedFileLoadsPrefixAndReportsIt) {
  std::stringstream ss;
  ASSERT_TRUE(SaveRepository(&ss, repo_).ok());
  const std::string bytes = ss.str();
  std::istringstream in(bytes.substr(0, bytes.size() / 2));
  ExecutionDataRepository loaded;
  RepositoryLoadStats stats;
  const Status st = LoadRepository(&in, &loaded, &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(stats.truncated);
  EXPECT_GT(stats.records_loaded, 0u);
  EXPECT_GT(stats.records_skipped, 0u);
  EXPECT_EQ(stats.records_loaded + stats.records_skipped,
            stats.records_expected);
}

TEST(RepositoryIoErrorTest, GarbageHeaderIsAnErrorNotACrash) {
  std::istringstream in("definitely not a repository");
  ExecutionDataRepository repo;
  const Status st = LoadRepository(&in, &repo);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(repo.num_plans(), 0u);
}

TEST(RepositoryIoErrorTest, InjectedIoFailureIsRetryable) {
  FaultInjector faults(9);
  faults.FailNext(FaultPoint::kRepositoryIo, 1);
  std::stringstream ss;
  ExecutionDataRepository repo;
  const Status st = LoadRepository(&ss, &repo, nullptr, &faults);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.retryable());
}

// ----------------------------------------------- Resilient ContinuousTuner

class RobustTunerTest : public ::testing::Test {
 protected:
  void SetUp() override { bdb_ = BuildTpchLike("robust_t", 1, 0.9, 61); }
  std::unique_ptr<BenchmarkDatabase> bdb_;
};

TEST_F(RobustTunerTest, SurvivesInjectedFaultsWithAccurateStats) {
  TuningEnv env = bdb_->MakeEnv(0);
  FaultInjector faults(1234);
  faults.set_probability(FaultPoint::kQueryExecution, 0.10);
  faults.set_probability(FaultPoint::kWhatIfTimeout, 0.05);
  faults.set_probability(FaultPoint::kCostNoiseSpike, 0.05);
  env.faults = &faults;

  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  ContinuousTuner::Options o;
  o.iterations = 4;
  o.max_indexes_per_iteration = 2;
  ContinuousTuner tuner(&env, &gen, o);
  ExecutionDataRepository repo;
  auto factory = []() -> std::unique_ptr<CostComparator> {
    return std::make_unique<OptimizerComparator>(0.0, 0.2);
  };

  int completed = 0;
  for (size_t qi = 0; qi < 6; ++qi) {
    const auto trace =
        tuner.TuneQuery(bdb_->queries()[qi], {}, factory, &repo, nullptr);
    if (!trace.completed) continue;  // Baseline unmeasurable: survivable.
    ++completed;
    EXPECT_GT(trace.initial_cost, 0);
    EXPECT_GT(trace.final_cost, 0);
    for (const auto& ir : trace.iterations) {
      if (!ir.failed && !ir.quarantined) {
        EXPECT_GT(ir.measured_cost, 0);
      }
    }
  }
  // Permanent baseline failure needs 3 consecutive injected faults
  // (p ~ 1e-3 per query); nearly every query must complete.
  EXPECT_GE(completed, 5);
  EXPECT_GT(repo.num_plans(), 0u);

  const ResilienceStats& rs = env.resilience;
  // Faults were actually exercised...
  EXPECT_GT(faults.injected(FaultPoint::kQueryExecution), 0);
  EXPECT_GT(rs.execution_attempts, 0);
  // ...and every one of them is accounted for, exactly:
  EXPECT_EQ(rs.what_if_timeouts,
            faults.injected(FaultPoint::kWhatIfTimeout));
  EXPECT_EQ(rs.execution_faults + rs.cost_samples_dropped,
            faults.injected(FaultPoint::kQueryExecution));
  if (rs.cost_samples_dropped > 0) {
    EXPECT_GT(rs.degraded_measurements, 0);
  }
  // Every revert was either verified restored or flagged.
  EXPECT_EQ(rs.reverts_verified + rs.revert_verification_failures,
            rs.reverts);
}

TEST_F(RobustTunerTest, FaultFreeRunsAreUnchangedByTheHooks) {
  // With no injector, the resilient path must behave like the original:
  // no retries, no degraded measurements, full sample counts.
  TuningEnv env = bdb_->MakeEnv(0);
  const QuerySpec& q = bdb_->queries()[0];
  StatusOr<TuningEnv::Measurement> m = env.TryExecuteAndMeasure(q, {});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->samples_used, env.cost_samples);
  EXPECT_EQ(env.resilience.execution_retries, 0);
  EXPECT_EQ(env.resilience.degraded_measurements, 0);
  EXPECT_EQ(env.resilience.execution_failures, 0);
}

TEST_F(RobustTunerTest, EndToEndChaosPipeline) {
  // The full acceptance scenario: continuous tuning under execution
  // failures and what-if timeouts, then telemetry shipped through a
  // 5%-corrupting channel — everything completes, reverts, and reports.
  TuningEnv env = bdb_->MakeEnv(0);
  FaultInjector faults(99);
  faults.set_probability(FaultPoint::kQueryExecution, 0.10);
  faults.set_probability(FaultPoint::kWhatIfTimeout, 0.05);
  env.faults = &faults;

  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  ContinuousTuner::Options o;
  o.iterations = 3;
  o.max_indexes_per_iteration = 2;
  ContinuousTuner tuner(&env, &gen, o);
  ExecutionDataRepository repo;
  for (size_t qi = 0; qi < 4; ++qi) {
    tuner.TuneQuery(bdb_->queries()[qi], {},
                    []() -> std::unique_ptr<CostComparator> {
                      return std::make_unique<OptimizerComparator>(0.0, 0.2);
                    },
                    &repo, nullptr);
  }
  EXPECT_EQ(env.resilience.reverts_verified +
                env.resilience.revert_verification_failures,
            env.resilience.reverts);

  // Ship the passively collected telemetry through a corrupting channel.
  ASSERT_GT(repo.num_plans(), 0u);
  FaultInjector wire(41);
  wire.set_probability(FaultPoint::kTelemetryCorruption, 0.05);
  std::stringstream ss;
  ASSERT_TRUE(SaveRepository(&ss, repo, &wire).ok());
  ExecutionDataRepository shipped;
  RepositoryLoadStats lstats;
  ASSERT_TRUE(LoadRepository(&ss, &shipped, &lstats).ok());
  EXPECT_EQ(lstats.records_skipped,
            static_cast<uint64_t>(
                wire.injected(FaultPoint::kTelemetryCorruption)));
  EXPECT_EQ(lstats.records_loaded + lstats.records_skipped,
            lstats.records_expected);
}

TEST_F(RobustTunerTest, RepeatOffendersAreQuarantined) {
  // A comparator that always approves drives the estimate-driven tuner
  // into re-recommending whatever looks good; with a tiny regression
  // threshold the same recommendation regresses repeatedly and must end
  // up quarantined instead of being re-implemented forever.
  TuningEnv env = bdb_->MakeEnv(0);
  CandidateGenerator gen(bdb_->db(), bdb_->stats());
  ContinuousTuner::Options o;
  o.iterations = 8;
  o.max_indexes_per_iteration = 2;
  // Anything short of a 100x speedup "regresses": every recommendation is
  // observed to regress, no matter how good it actually is.
  o.regression_threshold = -0.99;
  o.quarantine_after = 2;
  ContinuousTuner tuner(&env, &gen, o);
  auto factory = []() -> std::unique_ptr<CostComparator> {
    return std::make_unique<OptimizerComparator>(0.0, 0.2);
  };
  // queries()[2] is one the candidate generator actually finds indexes
  // for (queries()[0] has no indexable predicates on this database).
  const auto trace =
      tuner.TuneQuery(bdb_->queries()[2], {}, factory, nullptr, nullptr);
  // The run ended early (quarantine breaks the loop) and the offender
  // was benched after exactly `quarantine_after` observed regressions.
  EXPECT_GE(env.resilience.quarantined_recommendations, 1);
  EXPECT_GE(env.resilience.quarantine_skips, 1);
  EXPECT_GE(env.resilience.reverts, 2);
  // Nothing was adopted: the final configuration is still the initial.
  EXPECT_EQ(trace.final_config.Fingerprint(),
            Configuration().Fingerprint());
}

}  // namespace
}  // namespace aimai
