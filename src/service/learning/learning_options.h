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
/// tenant-adapted model through PublishValidated — only when the adapted
/// model's regression-class F1 on the tenant holdout is at least the
/// offline model's.
struct LearningOptions {
  bool enabled = false;
  FeedbackStore::Options feedback{};
  DriftDetector::Options drift{};
  /// Also retrain every N harvested rows (0 = drift-triggered only).
  int retrain_after = 0;
  /// Harvested train rows required before a retrain is attempted.
  int min_train_rows = 16;
  /// Holdout rows required before the publish gate is meaningful.
  int min_holdout_rows = 4;
  /// Holdout gate handed to PublishValidated for adapted models.
  PublishGate gate{};
  /// Seed of the retrain forests and the feedback reservoir (combined
  /// with the tenant name and retrain ordinal, so every tenant's loop is
  /// independently deterministic).
  uint64_t seed = 17;

  Status Validate() const;
};

}  // namespace aimai

#endif  // AIMAI_SERVICE_LEARNING_LEARNING_OPTIONS_H_
