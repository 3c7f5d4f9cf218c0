#ifndef AIMAI_SERVICE_LEARNING_FEEDBACK_STORE_H_
#define AIMAI_SERVICE_LEARNING_FEEDBACK_STORE_H_

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/random.h"
#include "ml/dataset.h"

namespace aimai {

/// FNV-1a over `tenant`, mixed into the learning seeds so each tenant
/// draws its own reservoir and retrain streams. Starts from
/// 1469598103934665603, not Fnv1a64's standard offset basis: the
/// per-tenant seeds (and every result drawn from them) depend on it.
uint64_t TenantSeedHash(const std::string& tenant);

/// Bounded, thread-safe store of labeled plan-pair feature rows harvested
/// from tenant sessions' measured executions (the paper's "leverage query
/// executions" signal, collected inside the service instead of offline).
///
/// Per-tenant namespacing: every tenant gets its own buffers, so one
/// tenant's harvest can never change what another tenant retrains on.
/// Rows are split deterministically into a *train* reservoir and a
/// *holdout* stream (every holdout_every-th row): the holdout never
/// trains, which is what makes the adapted-vs-offline comparison and the
/// PublishValidated gate honest.
///
/// Bounds: the train split is an Algorithm-R reservoir (uniform over the
/// tenant's history, evictions counted), the holdout is a bounded FIFO
/// (most recent rows win — drift shows up there first). Both are
/// deterministic given the per-tenant seed and add order; the service's
/// per-session job serialization makes the add order itself deterministic.
class FeedbackStore {
 public:
  struct Options {
    /// Train-reservoir rows kept per tenant.
    size_t capacity_per_tenant = 512;
    /// Every Nth labeled row goes to the holdout split (>= 2).
    int holdout_every = 5;
    /// Holdout rows kept per tenant (FIFO of the most recent).
    size_t holdout_capacity = 256;
    /// Base seed of the per-tenant reservoir RNGs.
    uint64_t seed = 17;
  };

  /// One harvested observation: the pair feature vector, the ground-truth
  /// label from measured execution costs, and the label the live model
  /// predicted when the tuner made the decision (-1 = unknown).
  struct Row {
    std::vector<double> x;
    int truth = 0;
    int predicted = -1;
  };

  explicit FeedbackStore(Options options);

  FeedbackStore(const FeedbackStore&) = delete;
  FeedbackStore& operator=(const FeedbackStore&) = delete;

  /// Adds one labeled row under `tenant`; returns true when the row went
  /// to the holdout split. Rows whose dimensionality disagrees with the
  /// tenant's first row are dropped (counted) — they would corrupt the
  /// feature matrix after a mid-run featurizer change.
  bool Add(const std::string& tenant, std::vector<double> x, int truth,
           int predicted);

  /// Snapshot of the tenant's train reservoir as an ML dataset.
  Dataset TrainData(const std::string& tenant) const;
  /// Snapshot of the tenant's holdout split.
  Dataset HoldoutData(const std::string& tenant) const;

  size_t TrainSize(const std::string& tenant) const;
  size_t HoldoutSize(const std::string& tenant) const;

  /// Labeled rows ever accepted for `tenant` (pre-eviction).
  int64_t RowsSeen(const std::string& tenant) const;

  std::vector<std::string> Tenants() const;

  int64_t total_added() const;
  int64_t total_evicted() const;
  int64_t total_dropped() const;

 private:
  struct TenantBuffer {
    explicit TenantBuffer(uint64_t seed) : rng(seed) {}
    std::vector<Row> train;    // Reservoir (unordered once full).
    std::deque<Row> holdout;   // FIFO of the most recent holdout rows.
    size_t dim = 0;            // Fixed by the first accepted row.
    int64_t seen = 0;          // Accepted rows (train + holdout).
    int64_t train_seen = 0;    // Rows offered to the reservoir.
    int64_t evicted = 0;
    Rng rng;
  };

  TenantBuffer& BufferLocked(const std::string& tenant);

  const Options options_;
  mutable std::mutex mu_;
  std::map<std::string, TenantBuffer> tenants_;
  int64_t total_added_ = 0;
  int64_t total_evicted_ = 0;
  int64_t total_dropped_ = 0;
};

}  // namespace aimai

#endif  // AIMAI_SERVICE_LEARNING_FEEDBACK_STORE_H_
