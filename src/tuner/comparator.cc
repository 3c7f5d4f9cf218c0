#include "tuner/comparator.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"
#include "common/thread_pool.h"
#include "obs/obs.h"

namespace aimai {

ModelComparator::ModelComparator(std::shared_ptr<const Classifier> classifier,
                                 PairFeaturizer featurizer)
    : classifier_(std::move(classifier)), featurizer_(std::move(featurizer)) {
  AIMAI_CHECK(classifier_ != nullptr);
}

bool ModelComparator::IsRegression(const PhysicalPlan& p1,
                                   const PhysicalPlan& p2) const {
  return Label(p1, p2) == kRegression;
}

bool ModelComparator::IsImprovement(const PhysicalPlan& p1,
                                    const PhysicalPlan& p2) const {
  const int label = Label(p1, p2);
  if (label == kImprovement) return true;
  // Unsure: insignificant difference — defer to the optimizer.
  return label == kUnsure && p2.est_total_cost < p1.est_total_cost;
}

int ModelComparator::Label(const PhysicalPlan& p1,
                           const PhysicalPlan& p2) const {
  return LabelForKey(Key{p1.ContentHash(), p2.ContentHash()}, p1, p2);
}

int ModelComparator::LabelForKey(const Key& key, const PhysicalPlan& p1,
                                 const PhysicalPlan& p2) const {
  {
    std::lock_guard<std::mutex> lock(labels_mu_);
    auto it = labels_.find(key);
    if (it != labels_.end()) {
      ++num_label_hits_;
      return it->second;
    }
  }
  const auto x = features_.GetOrCompute(featurizer_, p1, p2);
  int label = kUnsure;
  {
    AIMAI_SPAN("comparator.model_label");
    label = classifier_->Predict(x->data());
  }
  {
    std::lock_guard<std::mutex> lock(labels_mu_);
    auto it = labels_.find(key);
    if (it != labels_.end()) return it->second;  // A racer labeled it first.
    StoreLabelLocked(key, label);
  }
  // Outside the memo lock: the sink takes its own (the learning loop's)
  // lock and must never nest under labels_mu_.
  if (sink_ != nullptr) {
    sink_->OnDecision(key.first, key.second, label);
    AIMAI_COUNTER_INC("comparator.decisions_recorded");
  }
  return label;
}

void ModelComparator::StoreLabelLocked(const Key& key, int label) const {
  labels_.emplace(key, label);
  label_fifo_.push_back(key);
  while (labels_.size() > PairFeatureCache::kDefaultCapacity) {
    labels_.erase(label_fifo_.front());
    label_fifo_.pop_front();
  }
}

void ModelComparator::Prime(const std::vector<PlanPairView>& pairs,
                            ThreadPool* pool) const {
  if (pairs.empty()) return;
  AIMAI_SPAN("comparator.prime");

  // Deduplicate the round's pairs and drop ones already labeled. The
  // fan-out repeats the same base plan against many candidates, and the
  // what-if cache makes identical candidate plans common across rounds.
  std::vector<Key> keys;
  std::vector<PlanPairView> fresh;
  keys.reserve(pairs.size());
  fresh.reserve(pairs.size());
  {
    std::unordered_set<Key, KeyHash> seen;
    std::lock_guard<std::mutex> lock(labels_mu_);
    for (const PlanPairView& v : pairs) {
      if (v.p1 == nullptr || v.p2 == nullptr) continue;
      const Key key{v.p1->ContentHash(), v.p2->ContentHash()};
      if (labels_.find(key) != labels_.end()) continue;
      if (!seen.insert(key).second) continue;
      keys.push_back(key);
      fresh.push_back(v);
    }
  }
  if (fresh.empty()) return;

  const size_t n = fresh.size();
  const size_t dim = featurizer_.dim();
  const size_t k = static_cast<size_t>(classifier_->num_classes());

  // Featurize in parallel (through the memo, so scalar calls and later
  // rounds reuse the vectors), flattening into one row-major matrix.
  std::vector<double> rows(n * dim);
  ParallelFor(pool, n, [&](size_t i) {
    const auto x = features_.GetOrCompute(featurizer_, *fresh[i].p1,
                                          *fresh[i].p2);
    AIMAI_CHECK(x->size() == dim);
    std::copy(x->begin(), x->end(), rows.begin() + static_cast<long>(i * dim));
  });

  // One batched inference for the whole round.
  std::vector<double> probs(n * k);
  {
    AIMAI_SPAN("comparator.batch_predict");
    classifier_->PredictBatch(rows.data(), n, dim, probs.data());
  }
  AIMAI_COUNTER_INC("comparator.batch_calls");
  AIMAI_COUNTER_ADD("comparator.batched_pairs", static_cast<int64_t>(n));

  std::vector<std::pair<Key, int>> stored;
  {
    std::lock_guard<std::mutex> lock(labels_mu_);
    for (size_t i = 0; i < n; ++i) {
      if (labels_.find(keys[i]) != labels_.end()) continue;
      const int label = Classifier::ArgmaxLabel(&probs[i * k], k);
      StoreLabelLocked(keys[i], label);
      ++num_batched_labels_;
      if (sink_ != nullptr) stored.emplace_back(keys[i], label);
    }
  }
  for (const auto& [key, label] : stored) {
    sink_->OnDecision(key.first, key.second, label);
    AIMAI_COUNTER_INC("comparator.decisions_recorded");
  }
}

int64_t ModelComparator::num_batched_labels() const {
  std::lock_guard<std::mutex> lock(labels_mu_);
  return num_batched_labels_;
}

int64_t ModelComparator::num_label_hits() const {
  std::lock_guard<std::mutex> lock(labels_mu_);
  return num_label_hits_;
}

}  // namespace aimai
