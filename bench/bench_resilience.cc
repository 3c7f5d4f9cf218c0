// Fault-tolerance runtime overhead: the same query-tuning job stream is
// pushed through a baseline TuningService and through one with the full
// resilience stack armed (job deadlines + watchdog thread + stall
// detection + retry budget + checkpoint journal) but no faults injected.
// The acceptance bar is overhead < 2%, the median process-CPU ratio over
// alternating pairs of runs — the watchdog must be free when nothing is
// wrong. Also cross-checks that both services produce bit-identical
// recommendations and reports the journal's atomic-append latency
// separately (it is off the hot path: checkpoints are written at drain
// time, not per job). Emits machine-readable results to
// BENCH_resilience.json (atomic write); exits non-zero when the bar is
// missed.
//
// Knobs: AIMAI_QUICK=1 shrinks the job stream; AIMAI_SEED=<n> reseeds;
// AIMAI_FULL=1 grows it.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "report.h"
#include "service/service.h"
#include "workloads/customer.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

CustomerProfile TenantProfile(bool quick, bool full) {
  CustomerProfile prof;
  prof.num_tables = 4;
  prof.min_rows = quick ? 200 : 500;
  prof.max_rows = quick ? 1500 : (full ? 8000 : 4000);
  prof.num_queries = quick ? 5 : 8;
  prof.max_joins = 2;
  return prof;
}

std::string ResultKey(const QueryTuningResult& r) {
  std::string key = r.recommended.Fingerprint();
  key += StrFormat("|%.17g|%.17g", r.base_plan->est_total_cost,
                   r.final_plan->est_total_cost);
  return key;
}

// One timed pass: `jobs_per_session` query-tuning jobs per tenant, waves
// interleaved across sessions exactly like bench_service. The resilient
// configuration arms deadlines far above any honest job's runtime, so the
// watchdog scans but never escalates — its cost is pure overhead.
AbRun RunOnce(bool resilient,
              const std::vector<std::unique_ptr<BenchmarkDatabase>>& dbs,
              int jobs_per_session, const std::string& journal_dir) {
  const int sessions = static_cast<int>(dbs.size());
  ServiceOptions sopts;
  sopts.job_runners = 4;
  sopts.max_inflight_jobs = 4;
  sopts.max_queued_jobs = sessions * jobs_per_session + sessions;
  if (resilient) {
    sopts.job_timeout_ms = 120000;
    sopts.watchdog_poll_ms = 5;
    sopts.job_stall_timeout_ms = 30000;
    sopts.journal_dir = journal_dir;
  }
  auto service = std::move(TuningService::Create(sopts).value());
  std::vector<Session*> handles;
  for (int s = 0; s < sessions; ++s) {
    SessionOptions so;
    so.name = "tenant-" + std::to_string(s);
    so.env = dbs[static_cast<size_t>(s)]->MakeEnv(s);
    so.comparator.regression_threshold = 0.2;
    handles.push_back(service->CreateSession(so).value());
  }

  AbRun result;
  const double wall0 = NowMs();
  const double cpu0 = CpuMs();
  std::vector<std::shared_ptr<TuningJob>> jobs;
  for (int round = 0; round < jobs_per_session; ++round) {
    for (int s = 0; s < sessions; ++s) {
      const auto& queries = dbs[static_cast<size_t>(s)]->queries();
      jobs.push_back(
          handles[static_cast<size_t>(s)]
              ->TuneQuery(queries[static_cast<size_t>(round) % queries.size()],
                          dbs[static_cast<size_t>(s)]->initial_config())
              .value());
    }
  }
  for (const auto& job : jobs) {
    job->Wait();
    if (job->phase() != JobPhase::kDone) result.all_done = false;
    result.keys.push_back(ResultKey(job->outputs().query));
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
  const CustomerProfile prof = TenantProfile(quick, opts.full);
  const int sessions = 4;
  const int jobs_per_session = quick ? 4 : (opts.full ? 24 : 12);

  const std::string journal_dir =
      (std::filesystem::temp_directory_path() / "aimai_bench_resilience")
          .string();
  std::error_code ec;
  std::filesystem::remove_all(journal_dir, ec);

  std::fprintf(stderr, "building %d tenant databases...\n", sessions);
  std::vector<std::unique_ptr<BenchmarkDatabase>> dbs;
  for (int s = 0; s < sessions; ++s) {
    dbs.push_back(BuildCustomer("resb_" + std::to_string(s), prof,
                                opts.seed + static_cast<uint64_t>(s)));
  }

  const AbResult ab = MeasureOverhead(
      [&] { return RunOnce(false, dbs, jobs_per_session, journal_dir); },
      [&] { return RunOnce(true, dbs, jobs_per_session, journal_dir); });

  // Journal append latency, reported separately: checkpoints are written
  // at drain time, never inside the job hot path.
  const std::string payload(4096, 'c');
  CheckpointJournal journal({journal_dir, 8});
  const double j0 = NowMs();
  constexpr int kAppends = 16;
  for (int i = 0; i < kAppends; ++i) (void)journal.Append(payload);
  const double append_ms = (NowMs() - j0) / kAppends;

  const int jobs = sessions * jobs_per_session;
  std::printf("%-24s %10s %10s %10s %10s\n", "config", "jobs", "wall_ms",
              "overhead%", "identical");
  std::printf("%-24s %10d %10.1f %10s %10s\n", "baseline", jobs,
              ab.baseline_ms, "-", "-");
  std::printf("%-24s %10d %10.1f %9.2f%% %10s\n",
              "watchdog+deadline+journal", jobs, ab.variant_ms,
              ab.overhead_pct, ab.identical ? "yes" : "NO");
  std::printf("journal append (4 KiB, fsync+rename): %.2f ms\n", append_ms);

  Report("resilience")
      .Int("sessions", sessions)
      .Int("jobs_per_session", jobs_per_session)
      .Int("repeats", kOverheadPairs)
      .Num("baseline_ms", ab.baseline_ms, 1)
      .Num("resilient_ms", ab.variant_ms, 1)
      .Num("overhead_pct", ab.overhead_pct, 2)
      .Num("overhead_bar_pct", kOverheadBarPct, 1)
      .Num("journal_append_ms", append_ms, 2)
      .Bool("identical", ab.identical)
      .Bool("all_done", ab.all_done)
      .Write();
  return PassesOverheadGate(ab, "resilience") ? 0 : 1;
}
