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

#include "harness.h"
#include "robustness/atomic_file.h"
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

std::string PhaseJson(const char* name, const TrafficPhaseStats& p) {
  return StrFormat(
      "    \"%s\": {\"arrived\": %lld, \"admitted\": %lld, \"shed\": %lld, "
      "\"completed\": %lld, \"timed_out\": %lld, \"slo_miss\": %lld, "
      "\"p99_ms\": %.1f, \"slo_miss_rate\": %.4f}",
      name, static_cast<long long>(p.arrived),
      static_cast<long long>(p.admitted), static_cast<long long>(p.shed),
      static_cast<long long>(p.completed),
      static_cast<long long>(p.timed_out),
      static_cast<long long>(p.slo_miss), p.p99_ms, p.SloMissRate());
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

  std::printf("%-8s %8s %8s %8s %8s %10s %10s\n", "phase", "arrived",
              "admitted", "shed", "completed", "p99_ms", "miss_rate");
  std::printf("%-8s %8lld %8lld %8lld %8lld %10.1f %9.1f%%\n", "steady",
              static_cast<long long>(r.steady.arrived),
              static_cast<long long>(r.steady.admitted),
              static_cast<long long>(r.steady.shed),
              static_cast<long long>(r.steady.completed), r.steady.p99_ms,
              100.0 * r.steady.SloMissRate());
  std::printf("%-8s %8lld %8lld %8lld %8lld %10.1f %9.1f%%\n", "flash",
              static_cast<long long>(r.flash.arrived),
              static_cast<long long>(r.flash.admitted),
              static_cast<long long>(r.flash.shed),
              static_cast<long long>(r.flash.completed), r.flash.p99_ms,
              100.0 * r.flash.SloMissRate());
  std::printf(
      "total: %lld arrived over %zu tenants, %.1f jobs/sec sustained, "
      "p50 %.1fms p99 %.1fms, %lld shed, accounting %s\n",
      static_cast<long long>(r.arrived), r.tenants.size(), r.jobs_per_sec,
      r.p50_ms, r.p99_ms, static_cast<long long>(r.shed),
      r.AccountingBalanced() ? "balanced" : "IMBALANCED");

  std::string json = StrFormat(
      "{\n  \"sessions\": %d,\n  \"duration_s\": %.1f,\n"
      "  \"capacity_jobs_per_sec\": %.2f,\n"
      "  \"steady_rate_per_session\": %.4f,\n  \"slo_ms\": %lld,\n"
      "  \"arrived\": %lld,\n  \"admitted\": %lld,\n  \"shed\": %lld,\n"
      "  \"rejected\": %lld,\n  \"completed\": %lld,\n"
      "  \"jobs_per_sec\": %.2f,\n  \"p50_ms\": %.1f,\n"
      "  \"p99_ms\": %.1f,\n  \"slo_miss_rate\": %.4f,\n"
      "  \"phases\": {\n",
      kSessions, duration_s, capacity, steady_rate,
      static_cast<long long>(slo_ms), static_cast<long long>(r.arrived),
      static_cast<long long>(r.admitted), static_cast<long long>(r.shed),
      static_cast<long long>(r.rejected),
      static_cast<long long>(r.completed), r.jobs_per_sec, r.p50_ms,
      r.p99_ms, r.SloMissRate());
  json += PhaseJson("steady", r.steady) + ",\n";
  json += PhaseJson("flash", r.flash) + "\n  },\n";
  json += StrFormat("  \"accounting_balanced\": %s\n}\n",
                    r.AccountingBalanced() ? "true" : "false");
  // Atomic replace: a crash mid-write can never leave a torn results file.
  const Status wrote = WriteFileAtomic("BENCH_traffic.json", json);
  if (!wrote.ok()) {
    std::fprintf(stderr, "warning: %s\n", wrote.ToString().c_str());
  }

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
