#include "ml/compiled_forest.h"

#include <algorithm>

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
}

void CompiledForest::BeginTree() {
  roots_.push_back(static_cast<int32_t>(feature_.size()));
}

int CompiledForest::AddNode() {
  AIMAI_CHECK(!roots_.empty());
  const int id = static_cast<int>(feature_.size()) - roots_.back();
  feature_.push_back(-1);
  threshold_.push_back(0.0);
  left_.push_back(-1);
  right_.push_back(-1);
  payload_.resize(payload_.size() + payload_stride_, 0.0);
  return id;
}

double* CompiledForest::MutablePayload(int id) {
  const size_t u = static_cast<size_t>(roots_.back() + id);
  AIMAI_CHECK(id >= 0 && u < feature_.size());
  return &payload_[u * payload_stride_];
}

void CompiledForest::SetSplit(int id, int feature, double threshold,
                              int left, int right) {
  const int32_t base = roots_.back();
  const size_t u = static_cast<size_t>(base + id);
  AIMAI_CHECK(id >= 0 && u < feature_.size() && feature >= 0 && left > id &&
              right > id);
  feature_[u] = static_cast<int32_t>(feature);
  threshold_[u] = threshold;
  left_[u] = base + static_cast<int32_t>(left);
  right_[u] = base + static_cast<int32_t>(right);
}

size_t CompiledForest::tree_size(size_t t) const {
  const size_t end = t + 1 < roots_.size()
                         ? static_cast<size_t>(roots_[t + 1])
                         : feature_.size();
  return end - static_cast<size_t>(roots_[t]);
}

CompiledForest::Node CompiledForest::node(size_t t, int id) const {
  const int32_t base = roots_[t];
  const size_t u = static_cast<size_t>(base + id);
  const bool leaf = feature_[u] < 0;
  return {.feature = feature_[u],
          .threshold = threshold_[u],
          .left = leaf ? -1 : left_[u] - base,
          .right = leaf ? -1 : right_[u] - base,
          .payload = &payload_[u * payload_stride_]};
}

int CompiledForest::MaxFeature() const {
  return feature_.empty() ? -1
                          : *std::max_element(feature_.begin(), feature_.end());
}

}  // namespace aimai
