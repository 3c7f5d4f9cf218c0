#include "tuner/comparator.h"

#include "common/check.h"
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
  const Key key{p1.ContentHash(), p2.ContentHash()};
  {
    std::lock_guard<std::mutex> lock(labels_mu_);
    auto it = labels_.find(key);
    if (it != labels_.end()) return it->second;
  }
  const auto f1 = plan_features_.GetOrCompute(featurizer_, p1);
  const auto f2 = plan_features_.GetOrCompute(featurizer_, p2);
  const std::vector<double> x = featurizer_.Combine(*f1, *f2);
  int label = kUnsure;
  {
    AIMAI_SPAN("comparator.model_label");
    label = classifier_->Predict(x.data());
  }
  {
    std::lock_guard<std::mutex> lock(labels_mu_);
    auto it = labels_.find(key);
    if (it != labels_.end()) return it->second;  // A racer labeled it first.
    labels_.emplace(key, label);
    label_fifo_.push_back(key);
    while (labels_.size() > kLabelMemoCapacity) {
      labels_.erase(label_fifo_.front());
      label_fifo_.pop_front();
    }
  }
  // Outside the memo lock: the sink takes its own (the learning loop's)
  // lock and must never nest under labels_mu_.
  if (sink_ != nullptr) {
    sink_->OnDecision(key.first, key.second, label);
    AIMAI_COUNTER_INC("comparator.decisions_recorded");
  }
  return label;
}

}  // namespace aimai
