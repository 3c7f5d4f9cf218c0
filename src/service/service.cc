#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "obs/obs.h"

namespace aimai {

namespace {

/// Queue-claim aging: a runnable queued job that loses this many claims
/// gains one effective priority level, so low-priority work still drains
/// under a sustained high-priority open-loop flood.
constexpr int kPriorityAgingClaims = 32;

}  // namespace

TuningService::TuningService(ServiceOptions options)
    : options_(options),
      admission_(std::min(options.max_inflight_jobs, options.job_runners),
                 options.max_queued_jobs),
      queue_(JobQueue::Options{options.max_queued_jobs,
                               kPriorityAgingClaims}),
      job_retry_(options.job_retry) {
  // The cache keeps its default 16 shards and the journal its default
  // 8-entry retention.
  PlanCacheDomain::Options cache;
  cache.shard_capacity = static_cast<size_t>(options_.cache_shard_capacity);
  domain_ = std::make_shared<PlanCacheDomain>(cache);

  const int threads =
      options_.threads > 0 ? options_.threads : ConfiguredThreads();
  if (threads > 1) pool_ = std::make_unique<ThreadPool>(threads);

  if (!options_.journal_dir.empty()) {
    CheckpointJournal::Options jopts;
    jopts.dir = options_.journal_dir;
    journal_ = std::make_unique<CheckpointJournal>(jopts);
  }
  if (options_.job_timeout_ms > 0 || options_.job_stall_timeout_ms > 0) {
    EnsureWatchdog();
  }
  if (options_.learning.enabled) {
    learning_ = std::make_unique<LearningLoop>(this, options_.learning);
  }

  // The runner fleet is the in-flight bound: each runner executes one job
  // at a time, so min(job_runners, max_inflight_jobs) runners enforce
  // max_inflight_jobs structurally.
  const int runners = std::min(options_.job_runners,
                               options_.max_inflight_jobs);
  runners_.reserve(static_cast<size_t>(runners));
  for (int i = 0; i < runners; ++i) {
    runners_.emplace_back([this] { RunnerLoop(); });
  }
}

void TuningService::EnsureWatchdog() {
  if (watchdog_ != nullptr) return;
  JobWatchdog::Options wopts;
  wopts.poll_ms = options_.watchdog_poll_ms;
  wopts.stall_timeout_ms = options_.job_stall_timeout_ms;
  watchdog_ = std::make_unique<JobWatchdog>(&queue_, wopts);
  watchdog_->Start();
}

StatusOr<std::unique_ptr<TuningService>> TuningService::Create(
    ServiceOptions options) {
  AIMAI_RETURN_IF_ERROR(options.Validate());
  return std::unique_ptr<TuningService>(new TuningService(options));
}

TuningService::~TuningService() { Shutdown(); }

StatusOr<Session*> TuningService::CreateSession(SessionOptions options) {
  AIMAI_RETURN_IF_ERROR(options.Validate());
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is shut down");
  }
  if (draining_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is draining");
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  if (sessions_.size() >= static_cast<size_t>(options_.max_sessions)) {
    return Status::ResourceExhausted("session limit reached");
  }
  for (const auto& s : sessions_) {
    if (s->name() == options.name) {
      return Status::InvalidArgument("session name '" + options.name +
                                     "' is already registered");
    }
  }
  // A per-tenant deadline override needs the watchdog even when the
  // service-wide default leaves it off.
  if (options.job_timeout_ms > 0) EnsureWatchdog();
  sessions_.push_back(std::unique_ptr<Session>(
      new Session(this, std::move(options), domain_)));
  AIMAI_COUNTER_INC("service.sessions_created");
  return sessions_.back().get();
}

std::shared_ptr<TuningJob> TuningService::NewJob(JobType type,
                                                 Session* session) {
  auto job = std::make_shared<TuningJob>(
      next_job_id_.fetch_add(1, std::memory_order_relaxed), type, session,
      session->name(), session->priority());
  const int64_t session_override = session->options().job_timeout_ms;
  job->set_deadline_ms(session_override >= 0 ? session_override
                                             : options_.job_timeout_ms);
  job->set_max_attempts(std::max(1, options_.job_retry.max_attempts));
  job->set_on_terminal([this](const TuningJob& j, JobPhase terminal) {
    AccountTerminal(j, terminal);
  });
  return job;
}

std::shared_ptr<TuningJob> TuningService::NewRetrainJob(Session* session) {
  // Priority 0 sits below every session priority (>= 1): a retrain only
  // claims a runner no tuning job wants. Its lane carries a control-char
  // suffix no session name can contain, so it never serializes against
  // the tenant's own tuning jobs.
  auto job = std::make_shared<TuningJob>(
      next_job_id_.fetch_add(1, std::memory_order_relaxed), JobType::kRetrain,
      session, session->name() + kRetrainLaneSuffix(), /*priority=*/0);
  // No deadline and a single attempt: a retrain is cheap to re-trigger,
  // and retrying a cancelled one would race the barrier.
  job->set_deadline_ms(0);
  job->set_max_attempts(1);
  job->set_on_terminal([this](const TuningJob& j, JobPhase terminal) {
    AccountTerminal(j, terminal);
    if (learning_ != nullptr) learning_->OnRetrainTerminal(j, terminal);
  });
  return job;
}

Status TuningService::SubmitRetrain(std::shared_ptr<TuningJob> job) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is shut down");
  }
  if (draining_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is draining");
  }
  // No AdmitSubmit: shedding background retrains on queue depth would make
  // the learning loop's behavior depend on unrelated tenants' load. The
  // queue's own bound still applies.
  AIMAI_RETURN_IF_ERROR(queue_.Push(std::move(job)));
  AdmissionController::RecordQueueDepth(queue_.depth());
  return Status::Ok();
}

Status TuningService::Submit(std::shared_ptr<TuningJob> job) {
  if (shutdown_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is shut down");
  }
  if (draining_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("service is draining");
  }
  AIMAI_RETURN_IF_ERROR(
      admission_.AdmitSubmit(queue_.depth(), job->session_name()));
  AIMAI_RETURN_IF_ERROR(queue_.Push(std::move(job)));
  AdmissionController::RecordQueueDepth(queue_.depth());
  return Status::Ok();
}

void TuningService::RunnerLoop() {
  while (std::shared_ptr<TuningJob> job = queue_.Claim()) {
    AdmissionController::RecordQueueDepth(queue_.depth());
    admission_.JobStarted();
    const auto start = std::chrono::steady_clock::now();
    job->session()->RunJob(job.get());
    const auto elapsed = std::chrono::steady_clock::now() - start;
    AIMAI_HIST_RECORD(
        "service.job.ns",
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                .count()));
    admission_.JobFinished();

    if (job->phase() == JobPhase::kQueued) {
      // The attempt died to a timeout/crash and the session rearmed the
      // job: requeue it with accounted (virtual, never slept) backoff.
      // Push happens before Release so WaitIdle cannot observe an idle
      // instant while a retry is still pending.
      [[maybe_unused]] const double backoff =
          job_retry_.BackoffMs(job->attempt() - 1);
      AIMAI_HIST_RECORD("service.job.retry_backoff_ms", backoff);
      jobs_retried_.fetch_add(1, std::memory_order_relaxed);
      AIMAI_COUNTER_INC("service.jobs_retried");
      bool requeued = false;
      if (!draining_.load(std::memory_order_acquire)) {
        const Status pushed = queue_.Push(job);
        if (pushed.ok()) {
          requeued = true;
        } else {
          job->Finish(JobPhase::kFailed, pushed);
        }
      } else {
        job->Finish(JobPhase::kCancelled,
                    Status::Cancelled(
                        "service drained before the retry could run"));
      }
      if (!requeued) {
        AIMAI_COUNTER_INC("service.jobs_finished");
      }
      queue_.Release(job->session_name());
      PublishGauges();
      continue;
    }

    AIMAI_COUNTER_INC("service.jobs_finished");
    queue_.Release(job->session_name());
    PublishGauges();
  }
}

// Invoked from TuningJob::Finish (via the on_terminal hook) before the
// terminal phase is published, so Wait() returning implies the buckets
// below are current.
void TuningService::AccountTerminal(const TuningJob& job, JobPhase phase) {
  const int events = job.fault_events();
  if (events == 0) return;
  if (phase == JobPhase::kDone || phase == JobPhase::kCheckpointed) {
    faults_recovered_.fetch_add(events, std::memory_order_relaxed);
    AIMAI_COUNTER_ADD("service.faults.recovered", events);
  } else {
    faults_lost_.fetch_add(events, std::memory_order_relaxed);
    AIMAI_COUNTER_ADD("service.faults.lost", events);
  }
}

void TuningService::PublishGauges() {
  if (!obs::Enabled()) return;
  obs::Registry().GetGauge("service.cache.hit_rate")->Set(CacheHitRate());
  obs::Registry()
      .GetGauge("service.cache.size")
      ->Set(static_cast<double>(domain_->size()));
}

double TuningService::CacheHitRate() const {
  const int64_t lookups = domain_->num_lookups();
  if (lookups == 0) return 0.0;
  return static_cast<double>(domain_->num_hits()) /
         static_cast<double>(lookups);
}

int TuningService::num_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  return static_cast<int>(sessions_.size());
}

Status TuningService::Drain() {
  draining_.store(true, std::memory_order_release);

  // Jobs still queued never started; cancel them where they stand. A
  // queued retry of a fault-killed attempt dies here — its fault events
  // land in the "lost" bucket so the chaos accounting still closes.
  for (const std::shared_ptr<TuningJob>& job : queue_.TakeQueued()) {
    job->Finish(JobPhase::kCancelled,
                Status::Cancelled("service drained before the job started"));
  }
  AdmissionController::RecordQueueDepth(queue_.depth());

  // Running jobs stop at their next cooperative boundary; continuous jobs
  // freeze into resumable checkpointed state instead of cancelling.
  const std::vector<std::shared_ptr<TuningJob>> running =
      queue_.ClaimedJobs();
  for (const std::shared_ptr<TuningJob>& job : running) {
    job->RequestDrain();
  }
  queue_.WaitIdle();

  // Persist what the drain froze: every checkpointed continuous job goes
  // into the crash-safe journal so a process death after this point
  // loses nothing.
  if (journal_ != nullptr) {
    for (const std::shared_ptr<TuningJob>& job : running) {
      if (job->phase() != JobPhase::kCheckpointed) continue;
      std::ostringstream payload;
      if (job->session()->WriteCheckpoint(*job, &payload).ok()) {
        (void)journal_->Append(payload.str(), options_.faults);
      }
    }
  }
  PublishGauges();
  return Status::Ok();
}

void TuningService::Resume() {
  if (shutdown_.load(std::memory_order_acquire)) return;
  draining_.store(false, std::memory_order_release);
}

void TuningService::Shutdown() {
  if (shutdown_.exchange(true)) {
    return;  // Idempotent; the first caller does the work.
  }
  Drain();
  {
    // Detach under the session lock (CreateSession may create the
    // watchdog lazily) and stop it outside.
    std::unique_ptr<JobWatchdog> watchdog;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      watchdog = std::move(watchdog_);
    }
    if (watchdog != nullptr) watchdog->Stop();
  }
  queue_.Close();
  for (std::thread& t : runners_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace aimai
