#include "service/learning/feedback_store.h"

#include <utility>

#include "common/check.h"
#include "obs/obs.h"

namespace aimai {

uint64_t TenantSeedHash(const std::string& tenant) {
  uint64_t h = 1469598103934665603ULL;
  for (char c : tenant) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

FeedbackStore::FeedbackStore(Options options) : options_(options) {
  AIMAI_CHECK(options_.capacity_per_tenant > 0);
  AIMAI_CHECK(options_.holdout_every >= 2);
  AIMAI_CHECK(options_.holdout_capacity > 0);
}

FeedbackStore::TenantBuffer& FeedbackStore::BufferLocked(
    const std::string& tenant) {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    it = tenants_.emplace(tenant, TenantBuffer(options_.seed ^ TenantSeedHash(tenant)))
             .first;
  }
  return it->second;
}

bool FeedbackStore::Add(const std::string& tenant, std::vector<double> x,
                        int truth, int predicted) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantBuffer& buf = BufferLocked(tenant);
  if (buf.dim == 0) buf.dim = x.size();
  if (x.size() != buf.dim || x.empty()) {
    ++total_dropped_;
    AIMAI_COUNTER_INC("service.learning.rows_dropped");
    return false;
  }
  ++total_added_;
  AIMAI_COUNTER_INC("service.learning.rows_harvested");
  const int64_t seq = buf.seen++;
  Row row;
  row.x = std::move(x);
  row.truth = truth;
  row.predicted = predicted;

  if (seq % options_.holdout_every == 0) {
    buf.holdout.push_back(std::move(row));
    if (buf.holdout.size() > options_.holdout_capacity) {
      buf.holdout.pop_front();
      ++buf.evicted;
      ++total_evicted_;
      AIMAI_COUNTER_INC("service.learning.rows_evicted");
    }
    AIMAI_COUNTER_INC("service.learning.holdout_rows");
    return true;
  }

  // Algorithm R: once the reservoir is full, the new row replaces a
  // uniformly random slot with probability capacity / rows-seen-so-far.
  const int64_t offered = buf.train_seen++;
  if (buf.train.size() < options_.capacity_per_tenant) {
    buf.train.push_back(std::move(row));
    return false;
  }
  const int64_t j = buf.rng.UniformInt(0, offered);
  if (j < static_cast<int64_t>(options_.capacity_per_tenant)) {
    buf.train[static_cast<size_t>(j)] = std::move(row);
  }
  ++buf.evicted;
  ++total_evicted_;
  AIMAI_COUNTER_INC("service.learning.rows_evicted");
  return false;
}

Dataset FeedbackStore::TrainData(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.dim == 0) return Dataset();
  Dataset out(it->second.dim);
  for (const Row& r : it->second.train) out.Add(r.x, r.truth);
  return out;
}

Dataset FeedbackStore::HoldoutData(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.dim == 0) return Dataset();
  Dataset out(it->second.dim);
  for (const Row& r : it->second.holdout) out.Add(r.x, r.truth);
  return out;
}

size_t FeedbackStore::TrainSize(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.train.size();
}

size_t FeedbackStore::HoldoutSize(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.holdout.size();
}

int64_t FeedbackStore::RowsSeen(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.seen;
}

std::vector<std::string> FeedbackStore::Tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(tenants_.size());
  for (const auto& kv : tenants_) out.push_back(kv.first);
  return out;
}

int64_t FeedbackStore::total_added() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_added_;
}

int64_t FeedbackStore::total_evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_evicted_;
}

int64_t FeedbackStore::total_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_dropped_;
}

}  // namespace aimai
