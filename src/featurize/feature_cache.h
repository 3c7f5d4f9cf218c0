#ifndef AIMAI_FEATURIZE_FEATURE_CACHE_H_
#define AIMAI_FEATURIZE_FEATURE_CACHE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "featurize/pair_featurizer.h"

namespace aimai {

/// Memo for plan featurization, keyed by the plan's content fingerprint
/// (PhysicalPlan::ContentHash). The tuner compares the same current plan
/// against many candidates and revisits plans across rounds; a pair's
/// features combine two plans' channel features, so the memo bounds tree
/// walks to one per distinct plan. Bounded FIFO eviction, a
/// `featurize.plan_cache_hits` obs counter, and shared_ptr values so
/// features handed to a caller outlive eviction.
///
/// Thread-safe. A single mutex guards the map (feature vectors are small;
/// contention is far below the what-if optimizer's, which shards).
class PlanFeatureCache {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 12;

  explicit PlanFeatureCache(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  PlanFeatureCache(const PlanFeatureCache&) = delete;
  PlanFeatureCache& operator=(const PlanFeatureCache&) = delete;

  /// Returns the cached channel features of `plan`, featurizing on miss.
  /// The handle stays valid after eviction.
  std::shared_ptr<const PlanFeatures> GetOrCompute(
      const PairFeaturizer& featurizer, const PhysicalPlan& plan);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  int64_t num_hits() const {
    return num_hits_.load(std::memory_order_relaxed);
  }
  int64_t num_misses() const {
    return num_misses_.load(std::memory_order_relaxed);
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<const PlanFeatures>> map_;
  std::deque<uint64_t> fifo_;  // insertion order, for bounded eviction.
  std::atomic<int64_t> num_hits_{0};
  std::atomic<int64_t> num_misses_{0};
};

}  // namespace aimai

#endif  // AIMAI_FEATURIZE_FEATURE_CACHE_H_
