// Parallel tuning engine speedup: workload-level tuning wall time at 1,
// 2, 4, and 8 threads over a fresh what-if cache per run, plus the
// determinism cross-check (every thread count must produce the same
// recommendation fingerprint). Acceptance bar: >= 2x at 4 threads on a
// machine with >= 4 cores — tuning is CPU-bound, so its speedup is
// capped by the detected core count (the table says so when it is).
//
// The second table fans blocking tasks through the same pool. Sleeping
// tasks overlap regardless of core count, so that table verifies the
// pool delivers real wall-clock concurrency even on a 1-core CI box,
// and it is the one enforced with a nonzero exit.
//
// Knobs: AIMAI_QUICK=1 shrinks the workload; AIMAI_SEED=<n> reseeds.

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "harness.h"
#include "report.h"
#include "tuner/workload_tuner.h"
#include "workloads/tpch_like.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

double TimeTuneMs(BenchmarkDatabase* bdb,
                  const std::vector<WorkloadQuery>& wl, int threads,
                  std::string* fingerprint) {
  // A fresh optimizer per run: each thread count pays the same cold
  // cache, so the comparison measures fan-out, not cache reuse.
  WhatIfOptimizer what_if(bdb->db(), bdb->stats());
  CandidateGenerator gen(bdb->db(), bdb->stats());
  ThreadPool pool(threads);
  WorkloadLevelTuner::Options o;
  o.pool = &pool;
  WorkloadLevelTuner tuner(bdb->db(), &what_if, &gen, o);
  OptimizerComparator cmp(0.0, 0.2);

  const double t0 = NowMs();
  const WorkloadTuningResult r = tuner.Tune(wl, bdb->initial_config(), cmp);
  const double ms = NowMs() - t0;
  *fingerprint = r.recommended.Fingerprint();
  return ms;
}

/// Wall time for 16 x 5ms blocking tasks fanned through a ThreadPool.
/// Ideal: 80ms at 1 thread, 20ms at 4. Sleeps overlap on any core count.
double TimeBlockingFanoutMs(int threads) {
  constexpr size_t kTasks = 16;
  constexpr auto kTaskTime = std::chrono::milliseconds(5);
  ThreadPool pool(threads);
  const double t0 = NowMs();
  ParallelFor(&pool, kTasks,
              [&](size_t) { std::this_thread::sleep_for(kTaskTime); });
  return NowMs() - t0;
}

}  // namespace

int main() {
  const HarnessOptions opts = HarnessOptions::FromEnv();
  const int scale = opts.full ? 3 : 2;
  auto bdb = BuildTpchLike("par_bench", scale, 0.9, opts.seed);

  std::vector<WorkloadQuery> wl;
  const size_t nq = opts.scale_divisor > 2 ? 8 : bdb->queries().size();
  for (size_t i = 0; i < nq && i < bdb->queries().size(); ++i) {
    wl.push_back(WorkloadQuery{bdb->queries()[i],
                               1.0 + static_cast<double>(i % 3)});
  }

  // Warm the lazily-built statistics once so every timed run sees the
  // same histogram cache.
  {
    std::string fp;
    TimeTuneMs(bdb.get(), wl, 1, &fp);
  }

  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const int repeats = opts.full ? 5 : 3;

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"threads", "best ms", "speedup", "same result"});
  double serial_ms = 0;
  std::string serial_fp;
  bool all_match = true;
  for (const int threads : thread_counts) {
    double best = 0;
    std::string fp;
    for (int r = 0; r < repeats; ++r) {
      const double ms = TimeTuneMs(bdb.get(), wl, threads, &fp);
      if (r == 0 || ms < best) best = ms;
    }
    if (threads == 1) {
      serial_ms = best;
      serial_fp = fp;
    }
    const bool match = fp == serial_fp;
    all_match = all_match && match;
    rows.push_back({std::to_string(threads), F3(best),
                    StrFormat("%.2fx", serial_ms / best),
                    match ? "yes" : "NO"});
  }

  const unsigned cores = std::thread::hardware_concurrency();
  PrintTable(StrFormat("Workload-level tuning speedup (%zu queries, "
                       "best of %d runs, %u core%s detected)",
                       wl.size(), repeats, cores, cores == 1 ? "" : "s"),
             rows);
  if (cores < 4) {
    std::printf("note: tuning is CPU-bound; speedup at t threads is "
                "capped by min(t, cores) = %u here.\n", cores);
  }

  std::vector<std::vector<std::string>> frows;
  frows.push_back({"threads", "wall ms", "speedup"});
  double fan_serial_ms = 0;
  double fan_4t_speedup = 0;
  for (const int threads : thread_counts) {
    double best = 0;
    for (int r = 0; r < repeats; ++r) {
      const double ms = TimeBlockingFanoutMs(threads);
      if (r == 0 || ms < best) best = ms;
    }
    if (threads == 1) fan_serial_ms = best;
    const double speedup = fan_serial_ms / best;
    if (threads == 4) fan_4t_speedup = speedup;
    frows.push_back(
        {std::to_string(threads), F3(best), StrFormat("%.2fx", speedup)});
  }
  PrintTable("Pool fan-out, 16 x 5ms blocking tasks (best of repeats)",
             frows);

  if (!all_match) {
    std::fprintf(stderr,
                 "FAIL: recommendations diverged across thread counts\n");
    return 1;
  }
  if (fan_4t_speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: pool fan-out speedup at 4 threads was %.2fx "
                 "(need >= 2x)\n", fan_4t_speedup);
    return 1;
  }
  return 0;
}
