#ifndef AIMAI_ML_DECISION_TREE_H_
#define AIMAI_ML_DECISION_TREE_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/serialize.h"
#include "ml/compiled_forest.h"
#include "ml/dataset.h"
#include "ml/model.h"

namespace aimai {

/// Quantile feature binner shared by the tree learners: maps each feature
/// to at most `kMaxBins` ordinal bins. Split search then scans bin
/// histograms instead of sorting, which keeps Random Forests over
/// 100+-dimensional plan-pair features fast.
///
/// `Fit` also bins every dataset row once into a column-major d x n
/// matrix, which every tree of an ensemble fit reads by global row id.
/// Each column is binned by one walk over its rows in sorted order; when
/// the edges come from every row (an ensemble fit of up to 4096 rows),
/// the sort that yields the edges is that order.
class FeatureBinner {
 public:
  static constexpr int kMaxBins = 64;

  /// Learns bin edges from (a sample of) `rows`, then bins all of `data`.
  void Fit(const Dataset& data, const std::vector<size_t>& rows, Rng* rng);

  /// Bin index of value `v` for feature `j`.
  uint8_t BinOf(size_t j, double v) const;

  /// Upper edge value of bin `b` for feature `j` (split threshold:
  /// go left iff value <= edge).
  double EdgeValue(size_t j, int b) const;

  int NumBins(size_t j) const {
    return static_cast<int>(edges_[j].size()) + 1;
  }
  size_t num_features() const { return edges_.size(); }
  size_t num_rows() const { return num_rows_; }

  /// Bins of feature `j` for every row the binner was fit on:
  /// `Column(j)[i] == BinOf(j, data.At(i, j))`.
  const uint8_t* Column(size_t j) const {
    return bins_.data() + j * num_rows_;
  }

 private:
  // edges_[j] is sorted; bin b covers (edges[b-1], edges[b]].
  std::vector<std::vector<double>> edges_;
  size_t num_rows_ = 0;
  std::vector<uint8_t> bins_;  // Column-major: bins_[j * num_rows_ + i].
};

/// CART decision tree learner over binned features. Supports
/// Gini-impurity classification and variance-reduction regression;
/// per-split feature subsampling makes it the building block for Random
/// Forests and gradient boosting. A fit grows its tree straight into a
/// CompiledForest, the only stored form of a tree: the ensembles pass
/// their own forest to Grow*, and a standalone tree (Fit*) keeps a
/// one-tree forest of its own.
class DecisionTree {
 public:
  struct Options {
    int max_depth = 24;
    size_t min_samples_leaf = 1;
    /// Early-stopping threshold on impurity decrease (the paper's Gini
    /// improvement threshold, default 1e-6).
    double min_impurity_decrease = 1e-6;
    /// Fraction of features considered per split; <= 0 means sqrt(d).
    double feature_fraction = 1.0;
    uint64_t seed = 1;
  };

  /// Largest class count a model file may declare.
  static constexpr int kMaxClasses = 1 << 24;

  DecisionTree() : DecisionTree(Options()) {}
  explicit DecisionTree(Options options) : options_(options) {}

  /// Classification fit over `rows` of `data` (labels from data.Label);
  /// `rows` may repeat ids, as a bootstrap sample does. Appends the tree
  /// to `out`, whose payload stride must be num_classes; leaves are class
  /// distributions. An ensemble passes the binner it fit on `data` once
  /// for all its trees; nullptr fits one over `rows` for this tree alone.
  void GrowClassification(const Dataset& data, const std::vector<size_t>& rows,
                          int num_classes, const FeatureBinner* shared_binner,
                          CompiledForest* out) const;

  /// Regression fit against `targets[i]` for each dataset row i
  /// (targets.size() == data.n(); gradient boosting passes residuals).
  /// Appends the tree to `out` (payload stride 1); leaves are means.
  void GrowRegression(const Dataset& data, const std::vector<size_t>& rows,
                      const std::vector<double>& targets,
                      const FeatureBinner* shared_binner,
                      CompiledForest* out) const;

  /// Standalone fits: as Grow*, into this tree's own one-tree forest().
  void FitClassification(const Dataset& data, const std::vector<size_t>& rows,
                         int num_classes, const FeatureBinner* shared_binner);
  void FitRegression(const Dataset& data, const std::vector<size_t>& rows,
                     const std::vector<double>& targets,
                     const FeatureBinner* shared_binner);

  const CompiledForest& forest() const { return forest_; }

  /// Persists the trained tree as one `tree` record (inference state
  /// only; refitting requires the original data). `Load` returns DataLoss
  /// on a malformed stream or structure (see LoadTreeNodes); it never
  /// aborts.
  void Save(TokenWriter* w) const;
  Status Load(TokenReader* r);

 private:
  struct BuildContext;
  void Build(BuildContext* ctx, const Dataset& data,
             const std::vector<size_t>& rows,
             const FeatureBinner* shared_binner) const;
  int BuildNode(BuildContext* ctx, size_t begin, size_t end, int depth) const;

  Options options_;
  int num_classes_ = 0;  // 0 for a regression tree.
  CompiledForest forest_;
};

/// The two on-disk node layouts of the tree codec below.
enum class NodeLayout {
  /// Nodes of a `tree` record (DecisionTree, and every tree of RandomForest,
  /// GradientBoostedTrees and the regressors): feature, threshold, left,
  /// right, value, dist. A classification leaf keeps its class
  /// distribution in dist; a regression tree keeps its values (leaf means,
  /// 0 at splits) in value, with an empty dist.
  kTree,
  /// HistGradientBoosting nodes: feature, threshold, left, right, value.
  /// Every node keeps its value, a split the one it had as a leaf.
  kHgbt,
};

/// The one tree-node codec, which every tree model's file goes through.
/// `num_classes` is the class count of a classification forest (payload
/// stride num_classes, kTree only), or 0 for a forest of values (payload
/// stride 1: regression trees and boosting rounds).
///
/// Writes tree `t` of `forest`: its node count, then its nodes in
/// `layout`. Leaves write threshold 0 and children -1; a classification
/// node writes value 0 and a split an empty dist.
void SaveTreeNodes(const CompiledForest& forest, size_t t, int num_classes,
                   NodeLayout layout, TokenWriter* w);

/// Reads a node count and that many nodes in `layout`, and appends them to
/// `out` as one tree. Returns DataLoss on a node count of 0 or past
/// INT_MAX, a feature below -1, a split child that is not a later node of
/// the tree, or a leaf dist whose size is not num_classes. Nodes are read
/// one at a time, so a count the stream cannot hold ends in a
/// truncated-stream error, not in a huge allocation. What a walk never
/// reads is not kept: a leaf's threshold and children, a classification
/// node's value and a split's dist. On failure `out` may hold part of the
/// tree: callers load into a scratch forest.
Status LoadTreeNodes(TokenReader* r, int num_classes, NodeLayout layout,
                     CompiledForest* out);

/// Writes the forest's tree count, then every tree as a `tree` record, as
/// the tree ensembles persist them.
void SaveTrees(const CompiledForest& forest, int num_classes,
               TokenWriter* w);

/// Reads what SaveTrees writes into `out`. Every tree must be a
/// classification tree over `num_classes` classes, or a regression tree
/// when `num_classes` is 0. On failure returns DataLoss and leaves `out`
/// unchanged.
Status LoadTrees(TokenReader* r, int num_classes, CompiledForest* out);

}  // namespace aimai

#endif  // AIMAI_ML_DECISION_TREE_H_
