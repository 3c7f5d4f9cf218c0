#include "featurize/feature_cache.h"

#include "obs/obs.h"

namespace aimai {

std::shared_ptr<const PlanFeatures> PlanFeatureCache::GetOrCompute(
    const PairFeaturizer& featurizer, const PhysicalPlan& plan) {
  const uint64_t h = plan.ContentHash();
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(h);
    if (it != map_.end()) {
      num_hits_.fetch_add(1, std::memory_order_relaxed);
      AIMAI_COUNTER_INC("featurize.plan_cache_hits");
      return it->second;
    }
  }
  // Featurize outside the lock (pure function of the plan; concurrent
  // misses compute identical features).
  auto features = std::make_shared<const PlanFeatures>(
      featurizer.plan_featurizer().Featurize(plan));
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(h);
  if (it != map_.end()) {
    num_hits_.fetch_add(1, std::memory_order_relaxed);
    AIMAI_COUNTER_INC("featurize.plan_cache_hits");
    return it->second;
  }
  num_misses_.fetch_add(1, std::memory_order_relaxed);
  map_.emplace(h, features);
  fifo_.push_back(h);
  while (map_.size() > capacity_) {
    map_.erase(fifo_.front());
    fifo_.pop_front();
  }
  return features;
}

size_t PlanFeatureCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

}  // namespace aimai
