#include "robustness/resilience.h"

#include "common/string_util.h"

namespace aimai {

void ResilienceStats::Merge(const ResilienceStats& other) {
  execution_attempts += other.execution_attempts;
  execution_retries += other.execution_retries;
  execution_faults += other.execution_faults;
  execution_failures += other.execution_failures;
  what_if_timeouts += other.what_if_timeouts;
  cost_samples_dropped += other.cost_samples_dropped;
  degraded_measurements += other.degraded_measurements;
  total_backoff_ms += other.total_backoff_ms;
  failed_iterations += other.failed_iterations;
  reverts += other.reverts;
  reverts_verified += other.reverts_verified;
  revert_verification_failures += other.revert_verification_failures;
  quarantined_recommendations += other.quarantined_recommendations;
  quarantine_skips += other.quarantine_skips;
  records_skipped_corrupt += other.records_skipped_corrupt;
}

std::string ResilienceStats::ToString() const {
  return StrFormat(
      "resilience: exec attempts=%lld retries=%lld faults=%lld "
      "failures=%lld "
      "what-if timeouts=%lld samples dropped=%lld degraded=%lld "
      "backoff=%.1fms | iterations failed=%lld reverts=%lld "
      "verified=%lld verify-failures=%lld quarantined=%lld skips=%lld | "
      "telemetry skipped=%lld",
      static_cast<long long>(execution_attempts),
      static_cast<long long>(execution_retries),
      static_cast<long long>(execution_faults),
      static_cast<long long>(execution_failures),
      static_cast<long long>(what_if_timeouts),
      static_cast<long long>(cost_samples_dropped),
      static_cast<long long>(degraded_measurements), total_backoff_ms,
      static_cast<long long>(failed_iterations),
      static_cast<long long>(reverts),
      static_cast<long long>(reverts_verified),
      static_cast<long long>(revert_verification_failures),
      static_cast<long long>(quarantined_recommendations),
      static_cast<long long>(quarantine_skips),
      static_cast<long long>(records_skipped_corrupt));
}

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
      {"resilience.records_skipped_corrupt",
       &ResilienceStats::records_skipped_corrupt},
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
