#include "robustness/resilience.h"

namespace aimai {

void ResilienceStats::PublishDeltaTo(obs::MetricsRegistry* registry) {
  if (registry == nullptr || !obs::Enabled()) return;
  struct Field {
    const char* name;
    int64_t ResilienceStats::* member;
  };
  // Order fixes each field's slot in published_.counters.
  static constexpr Field kFields[] = {
      {"resilience.execution_attempts", &ResilienceStats::execution_attempts},
      {"resilience.execution_retries", &ResilienceStats::execution_retries},
      {"resilience.execution_faults", &ResilienceStats::execution_faults},
      {"resilience.execution_failures", &ResilienceStats::execution_failures},
      {"resilience.what_if_timeouts", &ResilienceStats::what_if_timeouts},
      {"resilience.cost_samples_dropped",
       &ResilienceStats::cost_samples_dropped},
      {"resilience.degraded_measurements",
       &ResilienceStats::degraded_measurements},
      {"resilience.failed_iterations", &ResilienceStats::failed_iterations},
      {"resilience.reverts", &ResilienceStats::reverts},
      {"resilience.reverts_verified", &ResilienceStats::reverts_verified},
      {"resilience.revert_verification_failures",
       &ResilienceStats::revert_verification_failures},
      {"resilience.quarantined_recommendations",
       &ResilienceStats::quarantined_recommendations},
      {"resilience.quarantine_skips", &ResilienceStats::quarantine_skips},
  };
  static_assert(sizeof(kFields) / sizeof(kFields[0]) ==
                sizeof(Published::counters) / sizeof(int64_t));
  for (size_t i = 0; i < sizeof(kFields) / sizeof(kFields[0]); ++i) {
    const int64_t current = this->*kFields[i].member;
    const int64_t delta = current - published_.counters[i];
    if (delta != 0) registry->GetCounter(kFields[i].name)->Add(delta);
    published_.counters[i] = current;
  }
  const double backoff_delta = total_backoff_ms - published_.backoff_ms;
  if (backoff_delta != 0) {
    registry->GetGauge("resilience.total_backoff_ms")->Add(backoff_delta);
  }
  published_.backoff_ms = total_backoff_ms;
}

}  // namespace aimai
