#include "service/learning/learning_loop.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "ml/metrics.h"
#include "models/adaptive.h"
#include "models/labeler.h"
#include "models/repository.h"
#include "obs/obs.h"
#include "service/service.h"
#include "service/session.h"

namespace aimai {

namespace {

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

/// Holdout F1 of the regression class — the gate metric: the adapted
/// model must catch at least as many true regressions (without drowning
/// in false alarms) as the shared offline model does on this tenant.
double RegressionF1(const Classifier& classifier, const Dataset& holdout) {
  ConfusionMatrix cm(kNumPairLabels);
  for (size_t i = 0; i < holdout.n(); ++i) {
    cm.Add(holdout.Label(i), classifier.Predict(holdout.Row(i)));
  }
  return cm.ForClass(static_cast<int>(PairLabel::kRegression)).f1;
}

}  // namespace

Status LearningOptions::Validate() const {
  if (!enabled) return Status::Ok();
  if (feedback.capacity_per_tenant < 1) {
    return Status::InvalidArgument(
        "learning.feedback.capacity_per_tenant must be >= 1");
  }
  if (feedback.holdout_every < 2) {
    return Status::InvalidArgument(
        "learning.feedback.holdout_every must be >= 2");
  }
  if (feedback.holdout_capacity < 1) {
    return Status::InvalidArgument(
        "learning.feedback.holdout_capacity must be >= 1");
  }
  if (drift.window < 1 || drift.min_observations < 1) {
    return Status::InvalidArgument(
        "learning.drift window/min_observations must be >= 1");
  }
  if (drift.min_f1 < 0 || drift.min_f1 > 1 || drift.max_miss_rate < 0 ||
      drift.max_miss_rate > 1) {
    return Status::InvalidArgument(
        "learning.drift rates must be in [0, 1]");
  }
  if (retrain_after < 0) {
    return Status::InvalidArgument("learning.retrain_after must be >= 0");
  }
  if (min_train_rows < 1 || min_holdout_rows < 1) {
    return Status::InvalidArgument(
        "learning.min_train_rows/min_holdout_rows must be >= 1");
  }
  if (max_pair_partners < 1) {
    return Status::InvalidArgument(
        "learning.max_pair_partners must be >= 1");
  }
  return Status::Ok();
}

std::string AdaptedModelName(const std::string& base,
                             const std::string& tenant) {
  return base + "\x1e" + tenant;
}

void LearningLoop::DecisionLog::OnDecision(uint64_t h1, uint64_t h2,
                                           int label) {
  std::lock_guard<std::mutex> lock(mu_);
  const Key key{h1, h2};
  auto it = labels_.find(key);
  if (it != labels_.end()) {
    it->second = label;  // A fresh comparator may re-decide the pair.
    return;
  }
  labels_.emplace(key, label);
  fifo_.push_back(key);
  while (labels_.size() > kCapacity) {
    labels_.erase(fifo_.front());
    fifo_.pop_front();
  }
}

int LearningLoop::DecisionLog::Lookup(uint64_t h1, uint64_t h2) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = labels_.find(Key{h1, h2});
  return it == labels_.end() ? -1 : it->second;
}

LearningLoop::LearningLoop(TuningService* service, LearningOptions options)
    : service_(service),
      options_(options),
      feedback_([&options] {
        FeedbackStore::Options f = options.feedback;
        f.seed = f.seed ^ options.seed;
        return f;
      }()),
      drift_(options.drift) {}

LearningLoop::TenantState* LearningLoop::StateFor(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.emplace(tenant, std::make_unique<TenantState>()).first;
  }
  return it->second.get();
}

ComparatorDecisionSink* LearningLoop::SinkFor(const std::string& tenant) {
  return &StateFor(tenant)->log;
}

std::shared_ptr<const ModelSnapshot> LearningLoop::ResolveModel(
    const std::string& base, const std::string& tenant) const {
  std::shared_ptr<const ModelSnapshot> adapted =
      service_->models().Snapshot(AdaptedModelName(base, tenant));
  if (adapted != nullptr) return adapted;
  return service_->models().Snapshot(base);
}

void LearningLoop::BarrierFor(const std::string& tenant) {
  std::shared_ptr<TuningJob> job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end()) return;
    job = it->second->inflight;
  }
  if (job == nullptr) return;
  AIMAI_SPAN("service.learning.retrain_barrier");
  // Steal a still-queued retrain and run it on this runner thread: the
  // tenant would have to wait for it anyway, and inlining makes the
  // barrier deadlock-free even when every runner is busy waiting.
  if (service_->queue_.ClaimSpecific(job)) {
    AIMAI_COUNTER_INC("service.learning.retrain_inline");
    job->session()->RunJob(job.get());
    service_->queue_.Release(job->session_name());
    AIMAI_COUNTER_INC("service.jobs_finished");
  }
  job->Wait();
}

void LearningLoop::Harvest(Session* session) {
  const std::string& model = session->options().model;
  if (model.empty()) return;
  AIMAI_SPAN("service.learning.harvest");
  const std::string& tenant = session->name();
  TenantState* ts = StateFor(tenant);
  ExecutionDataRepository* repo = session->repo();
  const size_t num_plans = repo->num_plans();
  if (ts->harvested_plans >= num_plans) return;

  std::shared_ptr<const ModelSnapshot> base =
      service_->models().Snapshot(model);
  if (base == nullptr) {  // Unpublished mid-run; skip this batch.
    ts->harvested_plans = num_plans;
    return;
  }
  // The live model — what the comparator actually consulted — supplies
  // the predicted label when the decision log has no record of the pair.
  std::shared_ptr<const ModelSnapshot> live = ResolveModel(model, tenant);
  PairDatasetBuilder builder(repo, base->featurizer, PairLabeler());

  int64_t harvested = 0;
  bool drifted = false;
  const auto add_pair = [&](int a, int b) {
    const ExecutedPlan& pa = repo->plan(a);
    const ExecutedPlan& pb = repo->plan(b);
    std::vector<double> x = builder.Features(PlanPairRef{a, b});
    const int truth = builder.labeler().Label(pa.exec_cost, pb.exec_cost);
    int predicted =
        ts->log.Lookup(pa.plan->ContentHash(), pb.plan->ContentHash());
    if (predicted < 0 && live != nullptr) {
      predicted = live->classifier->Predict(x.data());
    }
    feedback_.Add(tenant, std::move(x), truth, predicted);
    ++harvested;
    if (drift_.Record(tenant, truth, predicted)) drifted = true;
  };

  for (size_t p = ts->harvested_plans; p < num_plans; ++p) {
    const int pid = static_cast<int>(p);
    const std::vector<int>& members =
        repo->PlansOfQueryGroup(repo->QueryGroupOf(pid));
    // Pair the fresh plan with its query's most recent earlier plans,
    // both directions — the same ordered-pair universe MakePairs builds
    // offline, grown incrementally.
    int partners = 0;
    for (auto it = members.rbegin();
         it != members.rend() && partners < options_.max_pair_partners;
         ++it) {
      if (*it >= pid) continue;
      add_pair(*it, pid);
      add_pair(pid, *it);
      ++partners;
    }
  }
  ts->harvested_plans = num_plans;
  ts->rows_since_retrain += harvested;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ts->stats.rows_harvested += harvested;
    if (drifted) ++ts->stats.drift_triggers;
  }

  const bool count_trigger = options_.retrain_after > 0 &&
                             ts->rows_since_retrain >= options_.retrain_after;
  if (drifted || count_trigger) SubmitRetrain(session, ts);
}

void LearningLoop::SubmitRetrain(Session* session, TenantState* ts) {
  const std::string& tenant = session->name();
  if (feedback_.TrainSize(tenant) <
          static_cast<size_t>(options_.min_train_rows) ||
      feedback_.HoldoutSize(tenant) <
          static_cast<size_t>(options_.min_holdout_rows)) {
    return;  // Not enough evidence yet; a later harvest will re-trigger.
  }
  std::shared_ptr<TuningJob> job = service_->NewRetrainJob(session);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (ts->inflight != nullptr) return;  // Coalesce concurrent triggers.
    // Armed before the push: the terminal hook may fire immediately.
    ts->inflight = job;
  }
  const Status pushed = service_->SubmitRetrain(job);
  if (!pushed.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (ts->inflight == job) ts->inflight = nullptr;
    AIMAI_COUNTER_INC("service.learning.retrain_rejected");
    return;
  }
  ts->rows_since_retrain = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++ts->stats.retrains_submitted;
  }
  AIMAI_COUNTER_INC("service.learning.retrains_submitted");
}

void LearningLoop::RunRetrainJob(Session* session, TuningJob* job,
                                 JobPhase* phase, Status* status) {
  AIMAI_SPAN("service.learning.retrain");
  const std::string& tenant = session->name();
  const std::string& base_name = session->options().model;
  TenantState* ts = StateFor(tenant);

  if (job->token()->cancelled()) {
    *phase = JobPhase::kCancelled;
    *status = Status::Cancelled("retrain cancelled before training");
    return;
  }
  std::shared_ptr<const ModelSnapshot> offline =
      service_->models().Snapshot(base_name);
  if (offline == nullptr) {
    *phase = JobPhase::kFailed;
    *status = Status::FailedPrecondition("base model '" + base_name +
                                         "' is not published");
    return;
  }
  const Dataset train = feedback_.TrainData(tenant);
  const Dataset holdout = feedback_.HoldoutData(tenant);
  if (train.n() < static_cast<size_t>(options_.min_train_rows) ||
      holdout.n() < static_cast<size_t>(options_.min_holdout_rows)) {
    // The trigger outran the store (eviction, feature-dim change). Not a
    // tenant fault; the loop re-arms on the next harvest.
    *phase = JobPhase::kDone;
    *status = Status::Ok();
    return;
  }

  int ordinal = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ordinal = ts->retrain_ordinal++;
  }
  const uint64_t seed =
      options_.seed ^ Fnv1a(tenant) ^
      (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(ordinal + 1));
  std::shared_ptr<UncertaintyStrategy> adapted;
  {
    AIMAI_SPAN("service.learning.retrain_fit");
    adapted = std::make_shared<UncertaintyStrategy>(offline->classifier,
                                                    train, seed);
  }
  if (job->token()->cancelled()) {
    *phase = JobPhase::kCancelled;
    *status = Status::Cancelled("retrain cancelled after training");
    return;
  }

  const double offline_f1 = RegressionF1(*offline->classifier, holdout);
  const double adapted_f1 = RegressionF1(*adapted, holdout);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ts->stats.last_offline_f1 = offline_f1;
    ts->stats.last_adapted_f1 = adapted_f1;
  }
  if (obs::Enabled()) {
    obs::Registry()
        .GetGauge("service.learning.f1.offline." + tenant)
        ->Set(offline_f1);
    obs::Registry()
        .GetGauge("service.learning.f1.adapted." + tenant)
        ->Set(adapted_f1);
  }

  if (options_.require_f1_improvement && adapted_f1 < offline_f1) {
    std::lock_guard<std::mutex> lock(mu_);
    ++ts->stats.publish_skipped;
    AIMAI_COUNTER_INC("service.learning.publish_skipped");
    *phase = JobPhase::kDone;
    *status = Status::Ok();
    return;
  }

  AIMAI_SPAN("service.learning.publish");
  StatusOr<int> published = service_->models().PublishValidated(
      AdaptedModelName(base_name, tenant), adapted, offline->featurizer,
      holdout, options_.gate, service_->options_.faults);
  if (published.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++ts->stats.publishes;
      ts->stats.adapted_version = published.value();
    }
    AIMAI_COUNTER_INC("service.learning.publishes");
    // The new model must be judged on its own decisions, not the old
    // model's mistakes.
    drift_.Reset(tenant);
    *phase = JobPhase::kDone;
    *status = Status::Ok();
    return;
  }
  if (published.status().code() == StatusCode::kFailedPrecondition) {
    // The holdout gate refused the candidate: a successful retrain with
    // a negative publish decision, not a job failure.
    std::lock_guard<std::mutex> lock(mu_);
    ++ts->stats.publish_skipped;
    AIMAI_COUNTER_INC("service.learning.publish_skipped");
    *phase = JobPhase::kDone;
    *status = Status::Ok();
    return;
  }
  *phase = JobPhase::kFailed;
  *status = published.status();
}

void LearningLoop::OnRetrainTerminal(const TuningJob& job, JobPhase phase) {
  TenantState* ts = StateFor(job.session()->name());
  std::lock_guard<std::mutex> lock(mu_);
  if (ts->inflight != nullptr && ts->inflight.get() == &job) {
    ts->inflight = nullptr;
  }
  if (phase == JobPhase::kDone) {
    ++ts->stats.retrains_completed;
    AIMAI_COUNTER_INC("service.learning.retrains_completed");
  } else if (phase == JobPhase::kCancelled) {
    ++ts->stats.retrains_cancelled;
    AIMAI_COUNTER_INC("service.learning.retrains_cancelled");
  }
}

LearningLoop::TenantStats LearningLoop::StatsFor(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats() : it->second->stats;
}

}  // namespace aimai
