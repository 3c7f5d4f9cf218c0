#ifndef AIMAI_ROBUSTNESS_CIRCUIT_BREAKER_H_
#define AIMAI_ROBUSTNESS_CIRCUIT_BREAKER_H_

#include <cstdint>

namespace aimai {

/// Classic three-state circuit breaker, deterministic for the simulator:
/// the open-state cooldown is measured in `Allow()` calls, not wall time,
/// so breaker transitions replay identically run to run.
///
///   closed     -- failure_threshold consecutive failures --> open
///   open       -- cooldown_calls denied Allow() calls    --> half-open
///   half-open  -- half_open_successes successes          --> closed
///   half-open  -- any failure                            --> open again
class CircuitBreaker {
 public:
  enum class State { kClosed, kOpen, kHalfOpen };

  struct Options {
    int failure_threshold = 3;   // Consecutive failures that trip it.
    int cooldown_calls = 8;      // Denied calls while open before probing.
    int half_open_successes = 2; // Probe successes required to close.
  };

  CircuitBreaker() = default;
  explicit CircuitBreaker(Options options) : options_(options) {}

  /// Whether the protected operation may run now. While open, each denied
  /// call advances the cooldown; once it elapses the breaker half-opens
  /// and lets probes through.
  bool Allow();

  /// Outcome feedback for an allowed call.
  void RecordSuccess();
  void RecordFailure();

  State state() const { return state_; }
  int64_t trips() const { return trips_; }
  int64_t recoveries() const { return recoveries_; }
  const Options& options() const { return options_; }

 private:
  void Trip();

  Options options_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  int cooldown_progress_ = 0;
  int half_open_successes_ = 0;
  int64_t trips_ = 0;
  int64_t recoveries_ = 0;
};

}  // namespace aimai

#endif  // AIMAI_ROBUSTNESS_CIRCUIT_BREAKER_H_
