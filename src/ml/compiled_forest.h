#ifndef AIMAI_ML_COMPILED_FOREST_H_
#define AIMAI_ML_COMPILED_FOREST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aimai {

/// The one stored form of a decision tree: a structure-of-arrays forest.
/// Every tree model (DecisionTree, RandomForest, GradientBoostedTrees,
/// HistGradientBoosting and the regressors) grows its trees straight into
/// one, saves from it and loads into it, and predicts by walking it: five
/// parallel node arrays (feature, split threshold, left/right child ids,
/// and a payload of `payload_stride` doubles per node), traversed
/// iteratively with no virtual dispatch and no per-call allocation.
///
/// A leaf's payload is what a walk returns: a class distribution
/// (stride num_classes) or a regression value (stride 1). A split's
/// payload is never walked to. In a stride-1 forest it holds the split's
/// value, which a boosted tree saves (the value the node had as a leaf
/// before it split); in a wider forest it stays zero.
///
/// The accumulate helpers visit trees in insertion order and add payloads
/// in that order.
class CompiledForest {
 public:
  /// Node `id` of one tree as the tree codec reads it: tree-local child
  /// ids (-1 for a leaf) and the node's payload.
  struct Node {
    int feature;  // -1 marks a leaf.
    double threshold;
    int left;
    int right;
    const double* payload;
  };

  bool empty() const { return roots_.empty(); }
  size_t num_trees() const { return roots_.size(); }
  size_t num_nodes() const { return feature_.size(); }
  size_t payload_stride() const { return payload_stride_; }

  /// Drops all trees and declares the payload width: 1 for regression
  /// values, num_classes for classification leaf distributions.
  void Reset(size_t payload_stride);

  /// Starts a new tree. Nodes appended afterwards get tree-local ids 0, 1,
  /// ... in order (node 0 is the root).
  void BeginTree();
  /// Appends a leaf with a zero payload to the current tree and returns
  /// its tree-local id.
  int AddNode();
  /// Payload of node `id` of the current tree (payload_stride doubles;
  /// valid until the next AddNode).
  double* MutablePayload(int id);
  /// Makes node `id` of the current tree a split: a walk goes to `left`
  /// iff x[feature] <= threshold. Children are tree-local ids of later
  /// nodes; a loader may name ones it has not appended yet.
  void SetSplit(int id, int feature, double threshold, int left, int right);

  /// Node count of tree `t`, and its node `id` (0 <= id < tree_size(t)).
  size_t tree_size(size_t t) const;
  Node node(size_t t, int id) const;
  /// Largest feature index any split reads (-1 if none). A loaded model
  /// can only be applied to rows with more features than this.
  int MaxFeature() const;

  /// Leaf payload for example `x` in tree `t` (iterative descent).
  const double* Leaf(size_t t, const double* x) const {
    int32_t id = roots_[t];
    while (feature_[static_cast<size_t>(id)] >= 0) {
      const size_t u = static_cast<size_t>(id);
      id = x[feature_[u]] <= threshold_[u] ? left_[u] : right_[u];
    }
    return &payload_[static_cast<size_t>(id) * payload_stride_];
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
  std::vector<double> payload_;     // payload_stride_ doubles per node.
};

}  // namespace aimai

#endif  // AIMAI_ML_COMPILED_FOREST_H_
