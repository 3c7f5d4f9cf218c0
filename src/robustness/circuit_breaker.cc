#include "robustness/circuit_breaker.h"

namespace aimai {

bool CircuitBreaker::Allow() {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      if (++cooldown_progress_ >= options_.cooldown_calls) {
        state_ = State::kHalfOpen;
        half_open_successes_ = 0;
        // The call that completed the cooldown is still denied; the next
        // one probes. Keeps "cooldown_calls denied calls" exact.
      }
      return false;
    case State::kHalfOpen:
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess() {
  switch (state_) {
    case State::kClosed:
      consecutive_failures_ = 0;
      break;
    case State::kHalfOpen:
      if (++half_open_successes_ >= options_.half_open_successes) {
        state_ = State::kClosed;
        consecutive_failures_ = 0;
        ++recoveries_;
      }
      break;
    case State::kOpen:
      break;  // Feedback from a stale call; ignore.
  }
}

void CircuitBreaker::RecordFailure() {
  switch (state_) {
    case State::kClosed:
      if (++consecutive_failures_ >= options_.failure_threshold) Trip();
      break;
    case State::kHalfOpen:
      Trip();  // A failed probe re-opens immediately.
      break;
    case State::kOpen:
      break;
  }
}

void CircuitBreaker::Trip() {
  state_ = State::kOpen;
  cooldown_progress_ = 0;
  consecutive_failures_ = 0;
  half_open_successes_ = 0;
  ++trips_;
}

}  // namespace aimai
