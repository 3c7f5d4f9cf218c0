#ifndef AIMAI_ML_DECISION_TREE_H_
#define AIMAI_ML_DECISION_TREE_H_

#include <cstdint>
#include <memory>
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

/// CART decision tree over binned features. Supports Gini-impurity
/// classification and variance-reduction regression; per-split feature
/// subsampling makes it the building block for Random Forests and
/// gradient boosting.
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
  /// `rows` may repeat ids, as a bootstrap sample does. An ensemble passes
  /// the binner it fit on `data` once for all its trees; nullptr fits one
  /// over `rows` for this tree alone.
  void FitClassification(const Dataset& data, const std::vector<size_t>& rows,
                         int num_classes, const FeatureBinner* shared_binner);

  /// Regression fit against `targets[i]` for each dataset row i
  /// (targets.size() == data.n(); gradient boosting passes residuals).
  void FitRegression(const Dataset& data, const std::vector<size_t>& rows,
                     const std::vector<double>& targets,
                     const FeatureBinner* shared_binner);

  /// Leaf class distribution (classification trees).
  const std::vector<double>& LeafDistribution(const double* x) const;

  /// Leaf mean (regression trees).
  double PredictValue(const double* x) const;

  size_t num_nodes() const { return nodes_.size(); }
  int num_classes() const { return num_classes_; }
  bool is_regression() const { return is_regression_; }
  /// Largest feature index a split reads (-1 for a single leaf). A loaded
  /// tree can only be applied to rows with more features than this.
  int MaxFeature() const;

  /// Appends this tree to a compiled forest (`out` must already have the
  /// matching payload stride: num_classes for classification, 1 for
  /// regression). Nodes keep their ids, so traversal visits the same
  /// leaves as FindLeaf.
  void CompileInto(CompiledForest* out) const;

  /// Persists the trained tree (inference state only; refitting requires
  /// the original data). `Load` returns DataLoss on a malformed stream or
  /// structure (child ids that are not later nodes, a leaf distribution
  /// whose size is not num_classes); it never aborts.
  void Save(TokenWriter* w) const;
  Status Load(TokenReader* r);

 private:
  struct Node {
    int feature = -1;       // -1 for leaves.
    double threshold = 0;   // Go left iff x[feature] <= threshold.
    int left = -1;
    int right = -1;
    std::vector<double> dist;  // Classification leaves.
    double value = 0;          // Regression leaves.
  };

  struct BuildContext;
  void Build(BuildContext* ctx, const Dataset& data,
             const std::vector<size_t>& rows,
             const FeatureBinner* shared_binner);
  int BuildNode(BuildContext* ctx, size_t begin, size_t end, int depth);
  int FindLeaf(const double* x) const;

  Options options_;
  int num_classes_ = 0;
  bool is_regression_ = false;
  std::vector<Node> nodes_;
};

/// Reads a tree count and that many trees saved by DecisionTree::Save, as
/// the tree ensembles persist them. Every tree must be a classification
/// tree over `num_classes` classes, or a regression tree when
/// `num_classes` is 0. On failure returns DataLoss and leaves `trees`
/// unchanged.
Status LoadTrees(TokenReader* r, int num_classes,
                 std::vector<std::unique_ptr<DecisionTree>>* trees);

}  // namespace aimai

#endif  // AIMAI_ML_DECISION_TREE_H_
