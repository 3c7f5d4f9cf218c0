// Open-loop traffic at scale: 1024 concurrent tenant sessions stream
// what-if tuning jobs through one TuningService, with a flash-crowd
// overload window in the last 30% of the run. Reports sustained jobs/sec
// and p50/p99 latency split into steady vs overload phases.
//
// Two gates (exit 1 on either):
//   - shed accounting must balance EXACTLY — globally, per tenant, and
//     against the admission controller's own per-tenant books;
//   - the steady phase (sized at ~50% of measured capacity by a
//     calibration run) must keep its SLO miss rate under 25% — a p99
//     regression in the scheduler or admission path shows up here.
//
// The flash phase is reported, not gated: it runs at ~4x capacity by
// design, so shedding and SLO misses there are the system working.
//
// Knobs: AIMAI_QUICK=1 shrinks the duration and calibration (never the
// session count — 1k+ sessions is the point); AIMAI_FULL=1 lengthens the
// run; AIMAI_SEED=<n> reseeds schedule and databases.

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "harness.h"
#include "report.h"
#include "traffic/traffic_engine.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

constexpr int kSessions = 1024;

// Sustained service capacity (jobs/sec) under max-pressure dispatch: a
// small closed burst with an effectively unbounded queue, so nothing is
// shed and the runner fleet is the only limit.
double MeasureCapacity(uint64_t seed, bool quick) {
  const TrafficOptions copts{.sessions = 64,
                             .duration_s = 1.0,
                             .arrival = {.rate_per_sec = quick ? 8.0 : 16.0},
                             .slo_ms = 0,
                             .enforce_slo_deadline = false,
                             .seed = seed,
                             .databases = 4,
                             .runners = 8,
                             .max_queued = 1000000};
  auto report_or = TrafficEngine(copts).Run();
  if (!report_or.ok()) {
    std::fprintf(stderr, "calibration: %s\n",
                 report_or.status().ToString().c_str());
    std::exit(2);
  }
  return report_or->jobs_per_sec;
}

}  // namespace

int main() {
  const HarnessOptions opts = HarnessOptions::FromEnv();
  const bool quick = opts.scale_divisor > 2;
  const double duration_s = quick ? 2.0 : (opts.full ? 8.0 : 4.0);

  std::fprintf(stderr, "calibrating service capacity...\n");
  const double capacity = MeasureCapacity(opts.seed, quick);
  // Steady phase at ~50% capacity across all sessions; the flash window
  // multiplies that by 24 (= ~12x capacity). SLO: 20 mean service times,
  // floored — generous for a healthy queue, hopeless once it builds.
  const double steady_rate =
      std::max(0.001, 0.5 * capacity / static_cast<double>(kSessions));
  const int64_t slo_ms = std::max<int64_t>(
      250, static_cast<int64_t>(20.0 * 8.0 * 1000.0 / capacity));
  std::fprintf(stderr,
               "capacity %.1f jobs/sec -> steady %.4f/s per session, "
               "SLO %lld ms\n",
               capacity, steady_rate, static_cast<long long>(slo_ms));

  const TrafficOptions topts{
      .sessions = kSessions,
      .duration_s = duration_s,
      .arrival = {.kind = ArrivalKind::kFlashCrowd,
                  .rate_per_sec = steady_rate,
                  .flash_start_frac = 0.7,
                  .flash_duration_frac = 0.3,
                  .flash_multiplier = 24.0},
      .slo_ms = slo_ms,
      // Misses are accounted from completion latency; killing overdue
      // jobs mid-run would understate the overload the flash causes.
      .enforce_slo_deadline = false,
      .seed = opts.seed,
      .databases = 4,
      .time_compression = 1.0,  // Real-time replay: phases are real.
      .runners = 8,
      .max_queued = 512};
  std::fprintf(stderr, "replaying %d open-loop sessions for %.0fs...\n",
               kSessions, duration_s);
  auto report_or = TrafficEngine(topts).Run();
  if (!report_or.ok()) {
    std::fprintf(stderr, "traffic: %s\n",
                 report_or.status().ToString().c_str());
    return 2;
  }
  const TrafficReport& r = report_or.value();

  const std::pair<const char*, const TrafficPhaseStats*> phases[] = {
      {"steady", &r.steady}, {"flash", &r.flash}};
  std::printf("%-8s %8s %8s %8s %8s %10s %10s\n", "phase", "arrived",
              "admitted", "shed", "completed", "p99_ms", "miss_rate");
  for (const auto& [name, p] : phases) {
    std::printf("%-8s %8lld %8lld %8lld %8lld %10.1f %9.1f%%\n", name,
                static_cast<long long>(p->arrived),
                static_cast<long long>(p->admitted),
                static_cast<long long>(p->shed),
                static_cast<long long>(p->completed), p->p99_ms,
                100.0 * p->SloMissRate());
  }
  std::printf(
      "total: %lld arrived over %zu tenants, %.1f jobs/sec sustained, "
      "p50 %.1fms p99 %.1fms, %lld shed, accounting %s\n",
      static_cast<long long>(r.arrived), r.tenants.size(), r.jobs_per_sec,
      r.p50_ms, r.p99_ms, static_cast<long long>(r.shed),
      r.AccountingBalanced() ? "balanced" : "IMBALANCED");

  Report report("traffic");
  report.Int("sessions", kSessions)
      .Num("duration_s", duration_s, 1)
      .Num("capacity_jobs_per_sec", capacity, 2)
      .Num("steady_rate_per_session", steady_rate, 4)
      .Int("slo_ms", slo_ms)
      .Int("arrived", r.arrived)
      .Int("admitted", r.admitted)
      .Int("shed", r.shed)
      .Int("rejected", r.rejected)
      .Int("completed", r.completed)
      .Num("jobs_per_sec", r.jobs_per_sec, 2)
      .Num("p50_ms", r.p50_ms, 1)
      .Num("p99_ms", r.p99_ms, 1)
      .Num("slo_miss_rate", r.SloMissRate(), 4)
      .BeginObject("phases");
  for (const auto& [name, p] : phases) {
    report.BeginObject(name)
        .Int("arrived", p->arrived)
        .Int("admitted", p->admitted)
        .Int("shed", p->shed)
        .Int("completed", p->completed)
        .Int("timed_out", p->timed_out)
        .Int("slo_miss", p->slo_miss)
        .Num("p99_ms", p->p99_ms, 1)
        .Num("slo_miss_rate", p->SloMissRate(), 4)
        .EndObject();
  }
  report.EndObject()
      .Bool("accounting_balanced", r.AccountingBalanced())
      .Write();

  bool ok = true;
  if (!r.AccountingBalanced()) {
    std::fprintf(stderr, "FAIL: shed accounting does not balance\n");
    ok = false;
  }
  if (r.steady.SloMissRate() > 0.25) {
    std::fprintf(stderr,
                 "FAIL: steady-phase SLO miss rate %.1f%% exceeds 25%% at "
                 "half capacity\n",
                 100.0 * r.steady.SloMissRate());
    ok = false;
  }
  if (r.completed <= 0) {
    std::fprintf(stderr, "FAIL: no jobs completed\n");
    ok = false;
  }
  return ok ? 0 : 1;
}
