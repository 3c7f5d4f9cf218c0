#include "ml/compiled_forest.h"

#include "common/check.h"

namespace aimai {

void CompiledForest::Reset(size_t payload_stride) {
  AIMAI_CHECK(payload_stride > 0);
  payload_stride_ = payload_stride;
  roots_.clear();
  feature_.clear();
  threshold_.clear();
  left_.clear();
  right_.clear();
  payload_.clear();
  leaf_values_.clear();
}

void CompiledForest::BeginTree() {
  roots_.push_back(static_cast<int32_t>(feature_.size()));
}

void CompiledForest::AddSplit(int feature, double threshold, int left,
                              int right) {
  AIMAI_CHECK(!roots_.empty() && feature >= 0 && left >= 0 && right >= 0);
  const int32_t base = roots_.back();
  feature_.push_back(static_cast<int32_t>(feature));
  threshold_.push_back(threshold);
  left_.push_back(base + static_cast<int32_t>(left));
  right_.push_back(base + static_cast<int32_t>(right));
  payload_.push_back(0);
}

void CompiledForest::AddLeaf(const double* payload) {
  AIMAI_CHECK(!roots_.empty());
  feature_.push_back(-1);
  threshold_.push_back(0.0);
  left_.push_back(-1);
  right_.push_back(-1);
  payload_.push_back(static_cast<int32_t>(leaf_values_.size()));
  leaf_values_.insert(leaf_values_.end(), payload, payload + payload_stride_);
}

}  // namespace aimai
