#ifndef AIMAI_SERVICE_LEARNING_LEARNING_OPTIONS_H_
#define AIMAI_SERVICE_LEARNING_LEARNING_OPTIONS_H_

#include <cstdint>

#include "common/status.h"
#include "service/learning/drift_detector.h"
#include "service/learning/feedback_store.h"
#include "service/model_registry.h"

namespace aimai {

/// Configuration of the service's online learning loop (disabled by
/// default). When enabled, every session with a registry model harvests
/// labeled plan-pair rows from its measured continuous-tuning iterations
/// into the FeedbackStore, the DriftDetector watches the live model's
/// decisions against the measured truth, and drift (or a row-count
/// trigger) schedules a background kRetrain job that publishes a
/// tenant-adapted model through PublishValidated.
struct LearningOptions {
  bool enabled = false;
  FeedbackStore::Options feedback;
  DriftDetector::Options drift;
  /// Also retrain every N harvested rows (0 = drift-triggered only).
  int retrain_after = 0;
  /// Harvested train rows required before a retrain is attempted.
  int min_train_rows = 16;
  /// Holdout rows required before the publish gate is meaningful.
  int min_holdout_rows = 4;
  /// Each newly measured plan is paired (both directions) with up to this
  /// many of the most recent earlier plans of the same query instance.
  int max_pair_partners = 3;
  /// Publish only when the adapted model's regression-class F1 on the
  /// tenant holdout is at least the offline model's.
  bool require_f1_improvement = true;
  /// Holdout gate handed to PublishValidated for adapted models.
  PublishGate gate;
  /// Seed of the retrain forests and the feedback reservoir (combined
  /// with the tenant name and retrain ordinal, so every tenant's loop is
  /// independently deterministic).
  uint64_t seed = 17;

  LearningOptions& WithEnabled(bool b) {
    enabled = b;
    return *this;
  }
  LearningOptions& WithFeedback(const FeedbackStore::Options& f) {
    feedback = f;
    return *this;
  }
  LearningOptions& WithDrift(const DriftDetector::Options& d) {
    drift = d;
    return *this;
  }
  LearningOptions& WithRetrainAfter(int n) {
    retrain_after = n;
    return *this;
  }
  LearningOptions& WithMinTrainRows(int n) {
    min_train_rows = n;
    return *this;
  }
  LearningOptions& WithMinHoldoutRows(int n) {
    min_holdout_rows = n;
    return *this;
  }
  LearningOptions& WithMaxPairPartners(int n) {
    max_pair_partners = n;
    return *this;
  }
  LearningOptions& WithRequireF1Improvement(bool b) {
    require_f1_improvement = b;
    return *this;
  }
  LearningOptions& WithGate(const PublishGate& g) {
    gate = g;
    return *this;
  }
  LearningOptions& WithSeed(uint64_t s) {
    seed = s;
    return *this;
  }

  Status Validate() const;
};

}  // namespace aimai

#endif  // AIMAI_SERVICE_LEARNING_LEARNING_OPTIONS_H_
