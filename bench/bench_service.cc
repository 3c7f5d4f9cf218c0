// Service runtime throughput: workload-tuning jobs scheduled through a
// TuningService at 1, 4, and 16 concurrent sessions (distinct tenant
// databases, shared thread pool + what-if plan cache). Reports jobs/sec,
// mean and p99 job latency, queue behavior (admitted/shed), and the
// shared-cache hit rate; cross-checks that every tenant's recommendation
// is bit-identical to a dedicated serial run (the service determinism
// contract). Emits machine-readable results to BENCH_service.json.
//
// Knobs: AIMAI_QUICK=1 shrinks the tenant workloads; AIMAI_SEED=<n>
// reseeds; AIMAI_FULL=1 grows the per-tenant workload.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "report.h"
#include "service/service.h"
#include "tuner/workload_tuner.h"
#include "workloads/customer.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

CustomerProfile TenantProfile(bool quick, bool full) {
  CustomerProfile prof;
  prof.num_tables = 4;
  prof.min_rows = quick ? 200 : 500;
  prof.max_rows = quick ? 1500 : (full ? 8000 : 4000);
  prof.num_queries = quick ? 5 : (full ? 10 : 8);
  prof.max_joins = 2;
  return prof;
}

std::unique_ptr<BenchmarkDatabase> TenantDb(const CustomerProfile& prof,
                                            uint64_t seed, int tenant) {
  return BuildCustomer("svcb_" + std::to_string(tenant), prof,
                       seed + static_cast<uint64_t>(tenant));
}

std::vector<WorkloadQuery> TenantWorkload(const BenchmarkDatabase& bdb) {
  std::vector<WorkloadQuery> wl;
  for (const QuerySpec& q : bdb.queries()) {
    wl.push_back(WorkloadQuery{q, 1.0});
  }
  return wl;
}

std::string ResultKey(const WorkloadTuningResult& r) {
  std::string key = r.recommended.Fingerprint();
  key += StrFormat("|%.17g|%.17g", r.base_est_cost, r.final_est_cost);
  return key;
}

struct RunStats {
  int sessions = 0;
  int jobs = 0;
  double wall_ms = 0;
  double jobs_per_sec = 0;
  double mean_ms = 0;
  double p99_ms = 0;
  double cache_hit_rate = 0;
  int64_t admitted = 0;
  int64_t shed = 0;
  bool deterministic = true;
};

// Runs `sessions` tenants through one service, `jobs_per_session` workload
// jobs each (submitted in waves from the caller thread; the runner fleet
// interleaves them). Latency is submit-to-terminal per job.
RunStats RunAtScale(int sessions, int jobs_per_session,
                    const CustomerProfile& prof, uint64_t seed,
                    const std::vector<std::string>& serial_keys) {
  auto service = std::move(
      TuningService::Create(
          {.job_runners = std::min(sessions, 8),
           .max_inflight_jobs = std::min(sessions, 8),
           .max_queued_jobs = sessions * jobs_per_session + sessions})
          .value());
  std::vector<std::unique_ptr<BenchmarkDatabase>> dbs;
  std::vector<Session*> handles;
  for (int s = 0; s < sessions; ++s) {
    dbs.push_back(TenantDb(prof, seed, s));
    SessionOptions sopts;
    sopts.name = "tenant-" + std::to_string(s);
    sopts.env = dbs.back()->MakeEnv(s);
    sopts.comparator.regression_threshold = 0.2;
    handles.push_back(service->CreateSession(sopts).value());
  }

  RunStats stats;
  stats.sessions = sessions;
  std::vector<double> latencies;
  const double wall0 = NowMs();
  std::vector<std::shared_ptr<TuningJob>> jobs;
  std::vector<double> submit_ms;
  for (int round = 0; round < jobs_per_session; ++round) {
    for (int s = 0; s < sessions; ++s) {
      submit_ms.push_back(NowMs());
      jobs.push_back(handles[static_cast<size_t>(s)]
                         ->TuneWorkload(TenantWorkload(*dbs[s]),
                                        dbs[static_cast<size_t>(s)]
                                            ->initial_config())
                         .value());
    }
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    jobs[i]->Wait();
    latencies.push_back(NowMs() - submit_ms[i]);
    if (jobs[i]->phase() != JobPhase::kDone) stats.deterministic = false;
  }
  stats.wall_ms = NowMs() - wall0;
  stats.jobs = static_cast<int>(jobs.size());
  stats.jobs_per_sec = 1000.0 * stats.jobs / stats.wall_ms;
  for (double l : latencies) stats.mean_ms += l;
  stats.mean_ms /= static_cast<double>(latencies.size());
  std::sort(latencies.begin(), latencies.end());
  stats.p99_ms =
      latencies[std::min(latencies.size() - 1,
                         static_cast<size_t>(0.99 * latencies.size()))];
  stats.cache_hit_rate = service->CacheHitRate();
  stats.admitted = service->admission().admitted();
  stats.shed = service->admission().shed();

  // Determinism cross-check: each tenant's result (every round produced
  // the same job) must equal the dedicated serial run's.
  for (size_t i = 0; i < jobs.size(); ++i) {
    if (jobs[i]->phase() != JobPhase::kDone) continue;
    const int tenant = static_cast<int>(i) % sessions;
    if (ResultKey(jobs[i]->outputs().workload) !=
        serial_keys[static_cast<size_t>(tenant)]) {
      stats.deterministic = false;
    }
  }
  service->Shutdown();
  return stats;
}

}  // namespace

int main() {
  const HarnessOptions opts = HarnessOptions::FromEnv();
  const bool quick = opts.scale_divisor > 2;
  const CustomerProfile prof = TenantProfile(quick, opts.full);
  const int jobs_per_session = opts.full ? 4 : 2;
  constexpr int kMaxSessions = 16;

  // Serial reference per tenant: a dedicated tuner run on a fresh
  // same-seed database — the key every service run must reproduce.
  std::fprintf(stderr, "building %d tenant references...\n", kMaxSessions);
  std::vector<std::string> serial_keys;
  for (int s = 0; s < kMaxSessions; ++s) {
    auto bdb = TenantDb(prof, opts.seed, s);
    CandidateGenerator gen(bdb->db(), bdb->stats());
    WorkloadLevelTuner tuner(bdb->db(), bdb->what_if(), &gen,
                             WorkloadLevelTuner::Options());
    OptimizerComparator cmp(0.0, 0.2);
    serial_keys.push_back(
        ResultKey(tuner.Tune(TenantWorkload(*bdb), bdb->initial_config(),
                             cmp)));
  }

  std::printf("%-10s %8s %10s %10s %10s %10s %8s %s\n", "sessions", "jobs",
              "wall_ms", "jobs/sec", "mean_ms", "p99_ms", "cache%",
              "deterministic");
  std::vector<RunStats> results;
  for (int sessions : {1, 4, 16}) {
    const RunStats r =
        RunAtScale(sessions, jobs_per_session, prof, opts.seed, serial_keys);
    results.push_back(r);
    std::printf("%-10d %8d %10.1f %10.2f %10.1f %10.1f %7.1f%% %s\n",
                r.sessions, r.jobs, r.wall_ms, r.jobs_per_sec, r.mean_ms,
                r.p99_ms, 100.0 * r.cache_hit_rate,
                r.deterministic ? "yes" : "NO");
  }

  Report report("service");
  report.Int("jobs_per_session", jobs_per_session).BeginArray("scales");
  for (const RunStats& r : results) {
    report.BeginObject(nullptr)
        .Int("sessions", r.sessions)
        .Int("jobs", r.jobs)
        .Num("wall_ms", r.wall_ms, 1)
        .Num("jobs_per_sec", r.jobs_per_sec, 2)
        .Num("mean_ms", r.mean_ms, 1)
        .Num("p99_ms", r.p99_ms, 1)
        .Num("cache_hit_rate", r.cache_hit_rate, 4)
        .Int("admitted", r.admitted)
        .Int("shed", r.shed)
        .Bool("deterministic", r.deterministic)
        .EndObject();
  }
  report.EndArray().Write();

  bool all_deterministic = true;
  for (const RunStats& r : results) all_deterministic &= r.deterministic;
  if (!all_deterministic) {
    std::fprintf(stderr,
                 "FAIL: concurrent sessions diverged from serial runs\n");
    return 1;
  }
  return 0;
}
