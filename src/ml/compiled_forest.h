#ifndef AIMAI_ML_COMPILED_FOREST_H_
#define AIMAI_ML_COMPILED_FOREST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aimai {

/// Flattened structure-of-arrays decision forest. Trained tree ensembles
/// (RandomForest, GradientBoostedTrees, HistGradientBoosting) compile
/// their pointer-per-node trees into five parallel arrays — feature index,
/// split threshold, left/right child offsets, and a leaf-payload offset —
/// traversed iteratively with no virtual dispatch and no per-call
/// allocation. Leaf payloads (class distributions or regression values)
/// live contiguously in `leaf_values_` with a fixed stride.
///
/// The accumulate helpers visit trees in insertion order and add payloads
/// in that order, so every compiled result is bit-identical to the
/// node-chasing scalar path it replaces.
class CompiledForest {
 public:
  bool empty() const { return roots_.empty(); }
  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return feature_.size(); }
  size_t payload_stride() const { return payload_stride_; }

  /// Drops all trees and declares the leaf payload width: 1 for regression
  /// values, num_classes for classification leaf distributions.
  void Reset(size_t payload_stride);

  /// Starts a new tree. Subsequent AddSplit/AddLeaf calls append its nodes;
  /// `left`/`right` in AddSplit are node ids local to this tree, in the
  /// order the nodes are appended (node 0 is the root).
  void BeginTree();
  void AddSplit(int feature, double threshold, int left, int right);
  /// Appends a leaf, copying `payload_stride` doubles from `payload`.
  void AddLeaf(const double* payload);

  /// Leaf payload for example `x` in tree `t` (iterative descent).
  const double* Leaf(size_t t, const double* x) const {
    int32_t id = roots_[t];
    while (feature_[static_cast<size_t>(id)] >= 0) {
      const size_t u = static_cast<size_t>(id);
      id = x[feature_[u]] <= threshold_[u] ? left_[u] : right_[u];
    }
    return &leaf_values_[static_cast<size_t>(
        payload_[static_cast<size_t>(id)])];
  }

  /// Bagging accumulation: adds every tree's payload into
  /// out[0..payload_stride), in tree order.
  void AccumulateAll(const double* x, double* out) const {
    for (size_t t = 0; t < roots_.size(); ++t) {
      const double* p = Leaf(t, x);
      for (size_t c = 0; c < payload_stride_; ++c) out[c] += p[c];
    }
  }

  /// Boosting accumulation: out[t % k] += scale * payload[0], in tree
  /// order (trees are round-major with k classes per round).
  void AccumulateRoundRobin(const double* x, size_t k, double scale,
                            double* out) const {
    for (size_t t = 0; t < roots_.size(); ++t) {
      out[t % k] += scale * Leaf(t, x)[0];
    }
  }

 private:
  size_t payload_stride_ = 1;
  std::vector<int32_t> roots_;      // First node id of each tree.
  std::vector<int32_t> feature_;    // -1 marks a leaf.
  std::vector<double> threshold_;   // Go left iff x[feature] <= threshold.
  std::vector<int32_t> left_;       // Absolute node ids.
  std::vector<int32_t> right_;
  std::vector<int32_t> payload_;    // Leaf offset into leaf_values_.
  std::vector<double> leaf_values_;
};

}  // namespace aimai

#endif  // AIMAI_ML_COMPILED_FOREST_H_
