#include "service/options.h"

namespace aimai {

Status ServiceOptions::Validate() const {
  if (threads < 0) return Status::InvalidArgument("threads must be >= 0");
  if (job_runners < 1) {
    return Status::InvalidArgument("job_runners must be >= 1");
  }
  if (max_inflight_jobs < 1) {
    return Status::InvalidArgument("max_inflight_jobs must be >= 1");
  }
  if (max_queued_jobs < 1) {
    return Status::InvalidArgument("max_queued_jobs must be >= 1");
  }
  if (max_sessions < 1) {
    return Status::InvalidArgument("max_sessions must be >= 1");
  }
  if (cache_shard_capacity < 1) {
    return Status::InvalidArgument("cache_shard_capacity must be >= 1");
  }
  if (job_timeout_ms < 0) {
    return Status::InvalidArgument("job_timeout_ms must be >= 0");
  }
  if (watchdog_poll_ms < 1) {
    return Status::InvalidArgument("watchdog_poll_ms must be >= 1");
  }
  if (job_stall_timeout_ms < 0) {
    return Status::InvalidArgument("job_stall_timeout_ms must be >= 0");
  }
  if (job_retry.max_attempts < 1) {
    return Status::InvalidArgument("job_retry.max_attempts must be >= 1");
  }
  if (session_breaker.failure_threshold < 1 ||
      session_breaker.cooldown_calls < 1 ||
      session_breaker.half_open_successes < 1) {
    return Status::InvalidArgument("session_breaker options must be >= 1");
  }
  AIMAI_RETURN_IF_ERROR(learning.Validate());
  return Status::Ok();
}

Status SessionOptions::Validate() const {
  if (name.empty()) return Status::InvalidArgument("session name is empty");
  for (char c : name) {
    // The name becomes a cache-namespace prefix; control characters would
    // collide with the namespace/key separators.
    if (static_cast<unsigned char>(c) < 0x20) {
      return Status::InvalidArgument(
          "session name contains a control character");
    }
  }
  if (priority < 1) return Status::InvalidArgument("priority must be >= 1");
  if (env.db == nullptr || env.stats == nullptr || env.what_if == nullptr ||
      env.indexes == nullptr || env.executor == nullptr ||
      env.exec_cost == nullptr || env.noise_rng == nullptr) {
    return Status::InvalidArgument("session env is not fully wired");
  }
  if (env.cost_samples < 1) {
    return Status::InvalidArgument("cost_samples must be >= 1");
  }
  if (max_new_indexes < 1) {
    return Status::InvalidArgument("max_new_indexes must be >= 1");
  }
  if (storage_budget_bytes < 0) {
    return Status::InvalidArgument("storage_budget_bytes must be >= 0");
  }
  if (iterations < 1) {
    return Status::InvalidArgument("iterations must be >= 1");
  }
  if (quarantine_after < 1) {
    return Status::InvalidArgument("quarantine_after must be >= 1");
  }
  if (comparator.improvement_threshold < 0 ||
      comparator.improvement_threshold >= 1) {
    return Status::InvalidArgument(
        "improvement_threshold must be in [0, 1)");
  }
  if (comparator.regression_threshold < 0) {
    return Status::InvalidArgument("regression_threshold must be >= 0");
  }
  if (job_timeout_ms < -1) {
    return Status::InvalidArgument(
        "job_timeout_ms must be -1 (inherit), 0 (off), or positive");
  }
  return Status::Ok();
}

}  // namespace aimai
