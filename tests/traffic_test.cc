// Tests for the open-loop traffic engine: arrival-process determinism,
// schedule bit-identity, shed accounting, SLO deadline escalation, the
// runner-count determinism guard, and the JobQueue aging rule that keeps
// low-priority tenants from starving under an open-loop flood.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "service/job_queue.h"
#include "traffic/arrival.h"
#include "traffic/traffic_engine.h"
#include "workloads/query_stream.h"

namespace aimai {
namespace {

// --- Arrival processes -----------------------------------------------------

TEST(ArrivalTest, ParseKindRoundTrips) {
  EXPECT_EQ(ParseArrivalKind("poisson").value(), ArrivalKind::kPoisson);
  EXPECT_EQ(ParseArrivalKind("diurnal").value(), ArrivalKind::kDiurnal);
  EXPECT_EQ(ParseArrivalKind("flash").value(), ArrivalKind::kFlashCrowd);
  EXPECT_EQ(ParseArrivalKind("bursty").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_STREQ(ArrivalKindName(ArrivalKind::kFlashCrowd), "flash");
}

TEST(ArrivalTest, SpecValidationRejectsBadShapes) {
  EXPECT_FALSE(ArrivalSpec{.rate_per_sec = 0}.Validate().ok());
  EXPECT_FALSE((ArrivalSpec{.kind = ArrivalKind::kDiurnal, .amplitude = 1.5})
                   .Validate()
                   .ok());
  EXPECT_FALSE((ArrivalSpec{.kind = ArrivalKind::kFlashCrowd,
                            .flash_start_frac = 0.5,
                            .flash_duration_frac = 0.2,
                            .flash_multiplier = 0.5})
                   .Validate()
                   .ok());
  EXPECT_TRUE(ArrivalSpec().Validate().ok());
}

TEST(ArrivalTest, GenerationIsAPureFunctionOfTheSeed) {
  for (ArrivalKind kind : {ArrivalKind::kPoisson, ArrivalKind::kDiurnal,
                           ArrivalKind::kFlashCrowd}) {
    const ArrivalSpec spec{.kind = kind, .rate_per_sec = 20.0};
    auto process = MakeArrivalProcess(spec, 4.0).value();
    Rng a(99), b(99), c(100);
    const std::vector<double> first = GenerateArrivals(*process, 4.0, &a);
    const std::vector<double> second = GenerateArrivals(*process, 4.0, &b);
    const std::vector<double> other = GenerateArrivals(*process, 4.0, &c);
    EXPECT_EQ(first, second) << ArrivalKindName(kind);
    EXPECT_NE(first, other) << ArrivalKindName(kind);
    ASSERT_FALSE(first.empty());
    EXPECT_TRUE(std::is_sorted(first.begin(), first.end()));
    EXPECT_GE(first.front(), 0.0);
    EXPECT_LT(first.back(), 4.0);
  }
}

TEST(ArrivalTest, GenerationIsIdenticalUnderConcurrentThreads) {
  // The process is stateless and all randomness lives in the caller's Rng:
  // eight threads drawing the same seed must produce byte-identical
  // streams no matter how they interleave.
  const ArrivalSpec spec{.kind = ArrivalKind::kDiurnal, .rate_per_sec = 30.0};
  auto process = MakeArrivalProcess(spec, 3.0).value();
  std::vector<std::vector<double>> results(8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(4242);
      results[static_cast<size_t>(t)] =
          GenerateArrivals(*process, 3.0, &rng);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 1; t < 8; ++t) {
    EXPECT_EQ(results[static_cast<size_t>(t)], results[0]) << t;
  }
}

TEST(ArrivalTest, FlashCrowdConcentratesArrivalsInTheWindow) {
  const ArrivalSpec spec{.kind = ArrivalKind::kFlashCrowd,
                         .rate_per_sec = 50.0,
                         .flash_start_frac = 0.5,
                         .flash_duration_frac = 0.2,
                         .flash_multiplier = 8.0};
  const double duration = 10.0;
  auto process = MakeArrivalProcess(spec, duration).value();
  Rng rng(7);
  const std::vector<double> arrivals =
      GenerateArrivals(*process, duration, &rng);
  const double lo = 0.5 * duration, hi = lo + 0.2 * duration;
  double in_window = 0, outside = 0;
  for (double t : arrivals) (t >= lo && t < hi ? in_window : outside) += 1;
  const double in_density = in_window / (hi - lo);
  const double out_density = outside / (duration - (hi - lo));
  // The spike multiplies the rate 8x; allow generous sampling slack.
  EXPECT_GT(in_density, 3.0 * out_density);
}

// --- Schedule determinism --------------------------------------------------

TEST(TrafficScheduleTest, BitIdenticalAcrossEngineInstances) {
  const TrafficOptions opts{.sessions = 16,
                            .duration_s = 1.0,
                            .arrival = {.rate_per_sec = 5.0},
                            .seed = 11,
                            .databases = 2};
  TrafficEngine a(opts), b(opts);
  const auto sa = a.BuildSchedule().value();
  const auto sb = b.BuildSchedule().value();
  ASSERT_FALSE(sa.empty());
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].t_s, sb[i].t_s);
    EXPECT_EQ(sa[i].session, sb[i].session);
    EXPECT_EQ(sa[i].query.name, sb[i].query.name);
  }
  // Time-sorted, and a different base seed reshapes the whole schedule.
  for (size_t i = 1; i < sa.size(); ++i) {
    EXPECT_LE(sa[i - 1].t_s, sa[i].t_s);
  }
  TrafficOptions reseeded = opts;
  reseeded.seed = 12;
  TrafficEngine c(reseeded);
  const auto sc = c.BuildSchedule().value();
  bool same = sc.size() == sa.size();
  for (size_t i = 0; same && i < sa.size(); ++i) {
    same = sc[i].t_s == sa[i].t_s && sc[i].session == sa[i].session;
  }
  EXPECT_FALSE(same);
}

TEST(TrafficScheduleTest, InvalidOptionsAreRejected) {
  TrafficEngine engine({.sessions = 0});
  EXPECT_EQ(engine.BuildSchedule().status().code(),
            StatusCode::kInvalidArgument);
  TrafficEngine bad_arrival({.arrival = {.rate_per_sec = -1}});
  EXPECT_EQ(bad_arrival.Run().status().code(), StatusCode::kInvalidArgument);
}

// --- Accounting ------------------------------------------------------------

TEST(TrafficReportTest, AccountingBalancedCatchesEveryImbalance) {
  TrafficReport r;
  r.arrived = 10;
  r.admitted = 7;
  r.shed = 2;
  r.rejected = 1;
  r.completed = 6;
  r.timed_out = 1;
  TenantTraffic t;
  t.arrived = 10;
  t.admitted = 7;
  t.shed = 2;
  t.rejected = 1;
  t.completed = 6;
  t.timed_out = 1;
  r.tenants["t0"] = t;
  EXPECT_TRUE(r.AccountingBalanced());

  TrafficReport lost = r;
  lost.shed = 3;  // An arrival double-counted as shed.
  EXPECT_FALSE(lost.AccountingBalanced());

  TrafficReport tenant_drift = r;
  tenant_drift.tenants["t0"].shed = 1;
  tenant_drift.tenants["t0"].admitted = 8;
  EXPECT_FALSE(tenant_drift.AccountingBalanced());

  TrafficReport controller_drift = r;
  controller_drift.admission_matches = false;
  EXPECT_FALSE(controller_drift.AccountingBalanced());
}

TEST(TrafficRunTest, ShedAccountingBalancesUnderOverload) {
  // A deliberately tiny queue under max-pressure dispatch: most arrivals
  // must shed, and every one of them must be accounted for — globally,
  // per tenant, and in the admission controller's own books.
  const TrafficOptions opts{.sessions = 8,
                            .duration_s = 0.5,
                            .arrival = {.rate_per_sec = 20.0},
                            .slo_ms = 0,
                            .enforce_slo_deadline = false,
                            .seed = 21,
                            .databases = 2,
                            .runners = 2,
                            .max_queued = 4};
  TrafficEngine engine(opts);
  const TrafficReport report = engine.Run().value();

  EXPECT_GT(report.arrived, 0);
  EXPECT_GT(report.admitted, 0);
  EXPECT_GT(report.shed, 0);
  EXPECT_EQ(report.arrived, report.admitted + report.shed + report.rejected);
  EXPECT_EQ(report.admitted, report.completed + report.timed_out +
                                 report.failed + report.cancelled);
  EXPECT_TRUE(report.admission_matches);
  EXPECT_TRUE(report.AccountingBalanced());
  int64_t tenant_arrived = 0;
  for (const auto& [name, tenant] : report.tenants) {
    tenant_arrived += tenant.arrived;
  }
  EXPECT_EQ(tenant_arrived, report.arrived);
}

TEST(TrafficRunTest, SloDeadlineEscalatesOverdueJobs) {
  // A 1ms SLO against TPC-H-sized tuning jobs: the watchdog must escalate
  // overdue attempts to kTimedOut (never retried — the deadline already
  // passed), and every escalation counts as an SLO miss.
  const TrafficOptions opts{.sessions = 4,
                            .duration_s = 0.5,
                            .arrival = {.rate_per_sec = 8.0},
                            .slo_ms = 1,
                            .enforce_slo_deadline = true,
                            .seed = 31,
                            .databases = 1,
                            .stream = {.kind = "tpch", .scale = 2},
                            .runners = 2,
                            .max_queued = 256};
  TrafficEngine engine(opts);
  const TrafficReport report = engine.Run().value();

  EXPECT_GT(report.admitted, 0);
  EXPECT_GT(report.timed_out, 0);
  EXPECT_GE(report.slo_miss, report.timed_out);
  EXPECT_EQ(report.admitted, report.completed + report.timed_out +
                                 report.failed + report.cancelled);
  EXPECT_EQ(report.failed, 0);
  EXPECT_TRUE(report.AccountingBalanced());
}

TEST(TrafficRunTest, RunnerCountDoesNotChangeRecommendations) {
  // The bit-identity guard: with nothing shed and no deadline, the same
  // schedule through 1 runner and through 8 runners must produce the same
  // recommendation key for every job, in the same submission order.
  TrafficOptions opts{.sessions = 4,
                      .duration_s = 0.5,
                      .arrival = {.rate_per_sec = 8.0},
                      .slo_ms = 0,
                      .enforce_slo_deadline = false,
                      .seed = 41,
                      .databases = 2,
                      .max_queued = 100000,
                      .capture_results = true};

  opts.runners = 1;
  TrafficEngine serial(opts);
  const TrafficReport serial_report = serial.Run().value();
  opts.runners = 8;
  TrafficEngine wide(opts);
  const TrafficReport wide_report = wide.Run().value();

  EXPECT_EQ(serial_report.shed, 0);
  EXPECT_EQ(wide_report.shed, 0);
  ASSERT_GT(serial_report.completed, 0);
  EXPECT_EQ(serial_report.completed, wide_report.completed);
  ASSERT_FALSE(serial_report.result_keys.empty());
  EXPECT_EQ(serial_report.result_keys, wide_report.result_keys);
  EXPECT_TRUE(serial_report.AccountingBalanced());
  EXPECT_TRUE(wide_report.AccountingBalanced());
}

// --- JobQueue aging (the starvation fix) -----------------------------------

std::shared_ptr<TuningJob> QueueJob(int64_t id, const std::string& session,
                                    int priority) {
  return std::make_shared<TuningJob>(id, JobType::kQueryTuning, nullptr,
                                     session, priority);
}

TEST(JobQueueAgingTest, AgedLowPriorityJobClaimsAfterBoundedLosses) {
  // aging_claims = 2: every two lost claims promote the low job's
  // effective priority by one. Starting at 1 against priority-5 traffic,
  // it needs 8 losses to reach 5, where its lower seq breaks the tie —
  // claim #9 must pick it, deterministically.
  JobQueue queue(JobQueue::Options{64, 2});
  auto low = QueueJob(0, "low", 1);
  ASSERT_TRUE(queue.Push(low).ok());
  int claimed_low_at = -1;
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE(queue.Push(QueueJob(i, StrFormat("h%d", i), 5)).ok());
    auto claimed = queue.Claim();
    ASSERT_NE(claimed, nullptr);
    queue.Release(claimed->session_name());
    if (claimed->id() == 0) {
      claimed_low_at = i;
      break;
    }
  }
  EXPECT_EQ(claimed_low_at, 9);
}

TEST(JobQueueAgingTest, StrictPriorityStarvesWithoutAging) {
  // The regression the aging rule fixes: with aging disabled, the same
  // flood starves the low-priority job indefinitely.
  JobQueue queue(JobQueue::Options{64, 0});
  auto low = QueueJob(0, "low", 1);
  ASSERT_TRUE(queue.Push(low).ok());
  for (int i = 1; i <= 12; ++i) {
    ASSERT_TRUE(queue.Push(QueueJob(i, StrFormat("h%d", i), 5)).ok());
    auto claimed = queue.Claim();
    ASSERT_NE(claimed, nullptr);
    EXPECT_NE(claimed->id(), 0) << "low job claimed without aging";
    queue.Release(claimed->session_name());
  }
  EXPECT_EQ(queue.depth(), 1u);  // The low job is still waiting.
}

TEST(JobQueueAgingTest, EarlierDeadlineWinsWithinPriority) {
  // EDF within a priority level: a job pushed later but carrying a
  // deadline outranks an earlier no-deadline job of the same priority.
  JobQueue queue(JobQueue::Options{64, 0});
  auto relaxed = QueueJob(1, "a", 2);
  auto urgent = QueueJob(2, "b", 2);
  urgent->set_deadline_ms(50);
  ASSERT_TRUE(queue.Push(relaxed).ok());
  ASSERT_TRUE(queue.Push(urgent).ok());
  auto first = queue.Claim();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->id(), 2);
  queue.Release("b");
  auto second = queue.Claim();
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->id(), 1);
  queue.Release("a");
}

}  // namespace
}  // namespace aimai
