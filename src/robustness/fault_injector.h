#ifndef AIMAI_ROBUSTNESS_FAULT_INJECTOR_H_
#define AIMAI_ROBUSTNESS_FAULT_INJECTOR_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/random.h"

namespace aimai {

/// The catalog of places where the execution/tuning stack can fail. Each
/// point is a permanent hook: production code asks `ShouldFail(point)` at
/// the moment the real failure would surface, and chaos/regression tests
/// arm the points with probabilities or deterministic schedules.
enum class FaultPoint : int {
  kQueryExecution = 0,    // An execution (or cost sample) is lost.
  kCostNoiseSpike,        // A cost sample spikes (noisy neighbor).
  kWhatIfTimeout,         // What-if optimization exceeds its deadline.
  kTelemetryCorruption,   // A telemetry record is corrupted on write.
  kRepositoryIo,          // Repository save/load stream I/O error.
  kModelInference,        // Unused: no hook consults it. The slot stays
                          // because Reset seeds each point's stream by
                          // index.
  // Service-layer points (PR 6 chaos harness).
  kJobCrash,              // A tuning job's attempt dies mid-round.
  kJobStall,              // A tuning job stops making progress (hangs).
  kTornCheckpointWrite,   // A checkpoint write is torn before it lands.
  kModelPublishFailure,   // A model publish fails transiently.
};
inline constexpr int kNumFaultPoints = 10;

const char* FaultPointName(FaultPoint point);

/// Deterministic, seed-driven fault injection. Each fault point draws from
/// its own Rng stream (seeded from the injector seed and the point index),
/// so the schedule at one point is independent of how often other points
/// are consulted: same seed + same per-point call sequence => same faults.
///
/// A default-constructed injector is disabled; `ShouldFail` then costs one
/// predictable branch, which is why the hooks can stay compiled in (see
/// bench_robustness).
class FaultInjector {
 public:
  /// Disabled: every probability 0, nothing ever fails.
  FaultInjector() { Reset(0); }
  explicit FaultInjector(uint64_t seed) { Reset(seed); }

  /// Re-seeds all streams and clears probabilities, schedules and counters.
  void Reset(uint64_t seed);

  /// Arms `point` to fail with probability `prob` per check.
  void set_probability(FaultPoint point, double prob);
  double probability(FaultPoint point) const {
    return prob_[Idx(point)];
  }

  /// Deterministic schedule: the next `n` checks of `point` fail
  /// unconditionally (before any probability draw). Used by retry and
  /// breaker tests that need exact failure counts.
  void FailNext(FaultPoint point, int n);

  /// Consults the fault point. Increments the check counter; returns true
  /// (and counts an injection) when the fault fires.
  bool ShouldFail(FaultPoint point) {
    if (!enabled_) return false;
    return ShouldFailSlow(point);
  }

  /// Multiplicative disturbance for kCostNoiseSpike-style points: 1.0 when
  /// the fault does not fire, otherwise uniform in [min_factor, max_factor]
  /// from the point's own stream.
  double SpikeFactor(FaultPoint point, double min_factor = 2.0,
                     double max_factor = 8.0);

  int64_t checks(FaultPoint point) const { return checks_[Idx(point)]; }
  int64_t injected(FaultPoint point) const { return injected_[Idx(point)]; }
  int64_t total_injected() const;

 private:
  static size_t Idx(FaultPoint p) { return static_cast<size_t>(p); }
  bool ShouldFailSlow(FaultPoint point);
  void RefreshEnabled();

  bool enabled_ = false;
  uint64_t seed_ = 0;
  std::array<double, kNumFaultPoints> prob_{};
  std::array<int, kNumFaultPoints> forced_failures_{};
  std::array<int64_t, kNumFaultPoints> checks_{};
  std::array<int64_t, kNumFaultPoints> injected_{};
  // Per-point independent streams, in FaultPoint order.
  std::vector<Rng> streams_;
};

}  // namespace aimai

#endif  // AIMAI_ROBUSTNESS_FAULT_INJECTOR_H_
