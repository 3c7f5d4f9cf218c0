#ifndef AIMAI_SERVICE_RESILIENCE_CHAOS_H_
#define AIMAI_SERVICE_RESILIENCE_CHAOS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "service/options.h"
#include "service/service.h"

namespace aimai {

/// One tenant of a chaos run: the session to create and the continuous
/// tuning work to push through it. The caller wires the env (each tenant
/// needs its own database substrate — the harness is layering-clean and
/// never builds workloads itself).
struct ChaosTenant {
  SessionOptions session;
  QuerySpec query;
  Configuration initial;
};

/// Optional model under test: when supplied, the harness publishes it
/// through the validated gate before the run and re-publishes it under
/// injected kModelPublishFailure faults afterwards, retrying until the
/// publish lands (those injections count as recovered).
struct ChaosModelSpec {
  std::string name;
  std::shared_ptr<const Classifier> classifier;
  PairFeaturizer featurizer;
  Dataset holdout;
  PublishGate gate;
};

struct ChaosOptions {
  /// Seeds the FaultInjector: same seed + same tenants => same faults,
  /// same escalations, same report. AIMAI_CHAOS_SEED in check.sh feeds
  /// this.
  uint64_t seed = 1;
  /// Journal directory (required — the torn-write faults land here).
  std::string journal_dir;
  int64_t stall_timeout_ms = 50;
  int watchdog_poll_ms = 2;
};

/// What happened, bucketed so the books balance: every *fired* injection
/// must end up recovered (the job still reached kDone/kCheckpointed, or
/// the publish eventually landed), quarantined (a torn checkpoint entry
/// caught and isolated by the journal sweep), or shed (the retry budget
/// ran out and the job was terminally failed).
struct ChaosReport {
  int64_t injected = 0;
  int64_t recovered = 0;
  int64_t quarantined = 0;
  int64_t shed = 0;

  int64_t jobs_submitted = 0;
  int64_t jobs_done = 0;
  int64_t jobs_checkpointed = 0;
  int64_t jobs_failed = 0;
  int64_t jobs_timed_out = 0;
  int64_t jobs_cancelled = 0;
  int64_t jobs_retried = 0;
  int64_t watchdog_timeouts = 0;
  int64_t journal_entries = 0;
  bool all_jobs_terminal = true;

  bool accounted() const {
    return recovered + quarantined + shed == injected;
  }

  std::string ToString() const;
};

/// Runs the deterministic chaos scenario: builds a fault-tolerant
/// TuningService (watchdog + retries + journal) over the supplied
/// tenants, arms the four service-layer fault points, pushes two waves
/// of continuous-tuning jobs through it, drains (journaling the
/// checkpoints, with torn-write faults live), sweeps the journal, and
/// returns the accounting. The service is shut down before returning.
StatusOr<ChaosReport> RunChaos(const ChaosOptions& options,
                               std::vector<ChaosTenant> tenants,
                               const ChaosModelSpec* model = nullptr);

}  // namespace aimai

#endif  // AIMAI_SERVICE_RESILIENCE_CHAOS_H_
