#ifndef AIMAI_PERFBENCH_SERVE_H_
#define AIMAI_PERFBENCH_SERVE_H_

// The benchmark's own open-loop load generator. Unlike TrafficEngine::Run,
// which stamps latency from after TuneQuery returns (hiding dispatcher
// stalls) with whole-millisecond completion times, this generator times every
// job from its *due* time on the arrival schedule, stamps completions with
// a dedicated watcher thread polling at tens of microseconds, and reports
// how late the dispatcher ran against the schedule.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "workloads/query_stream.h"

namespace perfbench {

/// Job runners of the TuningServices the benchmark creates. The what-if
/// fan-out pool is off (a configured thread count of 1 runs it serially),
/// so runners plus pool threads stay within 4 cores. The serve stage runs
/// one runner fewer than the tune stage: its dispatcher and completion
/// watcher need a core of their own to stamp times faithfully.
constexpr int kTuneRunners = 3;
constexpr int kServeRunners = 2;
constexpr int kPoolThreads = 0;

/// Fixed open-loop rates, jobs/s: about 15% and 30% of the saturated
/// capacity (10.5k jobs/s with 2 runners) measured once on a 4-core Xeon
/// when the benchmark was introduced. Never recalibrated per run, so a
/// slower program shows as higher latency rather than as a lower rate.
/// Higher rates are not steady on that program: JobQueue::Claim scans
/// the whole queue, so a transient stall builds a backlog that lowers
/// capacity below the offered load. At 50% and 80% of capacity the
/// hi-rate p50 swung between 0.3 ms and 14 s from pass to pass.
constexpr double kLoRate = 1500;
constexpr double kHiRate = 3000;

struct ServeConfig {
  int sessions = 256;
  int databases = 4;
  /// Expected completions per fixed-rate phase (the Poisson draw varies
  /// the exact count); latency percentiles are taken over these.
  int jobs_per_rate = 2000;
  /// Jobs of the saturating phase.
  int sat_jobs = 4000;
};

struct ServeResult {
  // Latency from due time, per fixed-rate phase.
  double lo_p50_ms = 0, lo_p99_ms = 0, hi_p50_ms = 0, hi_p99_ms = 0;
  double capacity_jps = 0;
  // Dispatcher lateness against the schedule over both fixed-rate phases.
  double gen_lag_p99_ms = 0, gen_lag_max_ms = 0;
  // Watcher poll period actually achieved (stamp resolution).
  double poll_gap_p99_us = 0;
  // Service-side split of fixed-rate latency.
  double queue_wait_p50_ms = 0, queue_wait_p99_ms = 0;
  double run_p50_ms = 0, run_p99_ms = 0;
  // Plan-cache domain lookups and hits over all phases.
  int64_t cache_lookups = 0, cache_hits = 0;
  // Accounting: arrived == admitted + shed + rejected must hold.
  int64_t arrived = 0, admitted = 0, shed = 0, rejected = 0;
  int64_t completed = 0, failed = 0;
  bool accounting_ok = true;
  std::string digest;  // Over every job's result key, in schedule order.
  double wall_s = 0;
};

/// Runs the saturating, lo and hi phases against one TuningService whose
/// sessions share one plan-cache domain. `generators` hold the prepared
/// synthetic databases (built during set-up); their query streams are
/// advanced here.
ServeResult RunServe(
    const ServeConfig& config, uint64_t seed,
    std::vector<std::unique_ptr<aimai::IQueryStreamGenerator>>* generators);

}  // namespace perfbench

#endif  // AIMAI_PERFBENCH_SERVE_H_
