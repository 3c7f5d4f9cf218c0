#include "service/resilience/chaos.h"

#include <sstream>
#include <utility>

#include "obs/obs.h"

namespace aimai {

namespace {

constexpr int kJobRunners = 2;
/// Generous per-attempt deadline: in a chaos run only *injected* stalls
/// should time out, never honest work (a natural timeout would break the
/// accounting equation).
constexpr int64_t kJobTimeoutMs = 10000;
/// Continuous-job submission waves per tenant.
constexpr int kWaves = 2;
/// Armed fault schedules (FailNext counts per point). Publish failures
/// are armed only when a model spec is given.
constexpr int kCrashFaults = 2;
constexpr int kStallFaults = 1;
constexpr int kTornWrites = 1;
constexpr int kPublishFailures = 1;

}  // namespace

std::string ChaosReport::ToString() const {
  std::ostringstream out;
  out << "chaos: injected=" << injected << " recovered=" << recovered
      << " quarantined=" << quarantined << " shed=" << shed
      << (accounted() ? " (accounted)" : " (UNACCOUNTED)")
      << " | jobs submitted=" << jobs_submitted << " done=" << jobs_done
      << " checkpointed=" << jobs_checkpointed << " failed=" << jobs_failed
      << " timed_out=" << jobs_timed_out << " cancelled=" << jobs_cancelled
      << " retried=" << jobs_retried
      << " | watchdog_timeouts=" << watchdog_timeouts
      << " journal_entries=" << journal_entries;
  return out.str();
}

StatusOr<ChaosReport> RunChaos(const ChaosOptions& options,
                               std::vector<ChaosTenant> tenants,
                               const ChaosModelSpec* model) {
  if (tenants.empty()) {
    return Status::InvalidArgument("chaos run needs at least one tenant");
  }
  if (options.journal_dir.empty()) {
    return Status::InvalidArgument("chaos run needs a journal_dir");
  }
  AIMAI_SPAN("service.chaos.run");

  FaultInjector faults(options.seed);

  // Escalated jobs retry under the default budget (3 attempts). The
  // breaker stays effectively disabled: chaos accounting buckets faults
  // into recovered/quarantined/shed, and a tripping tenant would convert
  // retryable faults into fast-rejected jobs mid-equation. Tenant
  // isolation has its own dedicated test path.
  ServiceOptions sopts;
  sopts.job_runners = kJobRunners;
  sopts.job_timeout_ms = kJobTimeoutMs;
  sopts.watchdog_poll_ms = options.watchdog_poll_ms;
  sopts.job_stall_timeout_ms = options.stall_timeout_ms;
  sopts.session_breaker.failure_threshold = 1 << 20;
  sopts.journal_dir = options.journal_dir;
  sopts.faults = &faults;
  AIMAI_ASSIGN_OR_RETURN(std::unique_ptr<TuningService> service,
                         TuningService::Create(std::move(sopts)));

  std::vector<Session*> sessions;
  sessions.reserve(tenants.size());
  for (const ChaosTenant& tenant : tenants) {
    AIMAI_ASSIGN_OR_RETURN(Session * session,
                           service->CreateSession(tenant.session));
    sessions.push_back(session);
  }

  // Model-gated tenants need their model in the registry before any job
  // runs; this first publish is fault-free by design.
  if (model != nullptr) {
    AIMAI_ASSIGN_OR_RETURN(
        int version,
        service->models().PublishValidated(model->name, model->classifier,
                                           model->featurizer, model->holdout,
                                           model->gate, nullptr));
    (void)version;
  }

  // Arm the deterministic fault schedules. Only *fired* injections enter
  // the accounting, so an over-armed schedule cannot unbalance it.
  faults.FailNext(FaultPoint::kJobCrash, kCrashFaults);
  faults.FailNext(FaultPoint::kJobStall, kStallFaults);
  faults.FailNext(FaultPoint::kTornCheckpointWrite, kTornWrites);
  if (model != nullptr) {
    faults.FailNext(FaultPoint::kModelPublishFailure, kPublishFailures);
  }

  ChaosReport report;
  std::vector<std::shared_ptr<TuningJob>> jobs;
  for (int wave = 0; wave < kWaves; ++wave) {
    for (size_t i = 0; i < tenants.size(); ++i) {
      StatusOr<std::shared_ptr<TuningJob>> job =
          sessions[i]->TuneContinuous(tenants[i].query, tenants[i].initial);
      if (job.ok()) {
        jobs.push_back(std::move(job).value());
        ++report.jobs_submitted;
      }
    }
    // The final wave stays in flight: Drain() below freezes whatever is
    // still running into checkpointed state and journals it.
    if (wave + 1 < kWaves) {
      for (const std::shared_ptr<TuningJob>& job : jobs) job->Wait();
    }
  }

  // Re-publish under injected publish failures, retrying until it lands.
  // Every fired kModelPublishFailure whose retry eventually succeeded is
  // a recovered fault; if the publish never lands they are shed.
  int64_t publish_fired = 0;
  int64_t publish_recovered = 0;
  if (model != nullptr) {
    bool landed = false;
    for (int i = 0; i < kPublishFailures + 2 && !landed; ++i) {
      landed = service->models()
                   .PublishValidated(model->name, model->classifier,
                                     model->featurizer, model->holdout,
                                     model->gate, &faults)
                   .ok();
    }
    publish_fired = faults.injected(FaultPoint::kModelPublishFailure);
    publish_recovered = landed ? publish_fired : 0;
  }

  // Drain checkpoints the in-flight continuous runs into the journal with
  // the torn-write faults live. Any armed tears the drain did not consume
  // are forced onto filler entries so the scenario always exercises them.
  (void)service->Drain();
  CheckpointJournal* journal = service->journal();
  while (faults.injected(FaultPoint::kTornCheckpointWrite) < kTornWrites) {
    (void)journal->Append("chaos filler entry", &faults);
  }

  // Recovery sweep: every torn entry must be caught by its checksum and
  // quarantined, never crashed on.
  journal->VerifyAll();
  report.quarantined = journal->quarantined();
  report.journal_entries = journal->entries_appended();

  for (const std::shared_ptr<TuningJob>& job : jobs) {
    switch (job->phase()) {
      case JobPhase::kDone:
        ++report.jobs_done;
        break;
      case JobPhase::kCheckpointed:
        ++report.jobs_checkpointed;
        break;
      case JobPhase::kFailed:
        ++report.jobs_failed;
        break;
      case JobPhase::kTimedOut:
        ++report.jobs_timed_out;
        break;
      case JobPhase::kCancelled:
        ++report.jobs_cancelled;
        break;
      default:
        report.all_jobs_terminal = false;
        break;
    }
  }

  report.jobs_retried = service->jobs_retried();
  report.watchdog_timeouts =
      service->watchdog() != nullptr ? service->watchdog()->timeouts() : 0;
  report.injected = faults.injected(FaultPoint::kJobCrash) +
                    faults.injected(FaultPoint::kJobStall) +
                    faults.injected(FaultPoint::kTornCheckpointWrite) +
                    publish_fired;
  report.recovered = service->faults_recovered() + publish_recovered;
  report.shed =
      service->faults_lost() + (publish_fired - publish_recovered);

  service->Shutdown();
  return report;
}

}  // namespace aimai
