#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"

namespace aimai {

void FeatureBinner::Fit(const Dataset& data, const std::vector<size_t>& rows,
                        Rng* rng) {
  const size_t d = data.d();
  edges_.assign(d, {});
  num_rows_ = data.n();
  bins_.assign(d * num_rows_, 0);
  if (rows.empty()) return;

  // Sample rows for edge estimation.
  std::vector<size_t> sample = rows;
  constexpr size_t kMaxSample = 4096;
  if (sample.size() > kMaxSample) {
    const std::vector<size_t> pick =
        rng->SampleWithoutReplacement(sample.size(), kMaxSample);
    std::vector<size_t> reduced;
    reduced.reserve(kMaxSample);
    for (size_t p : pick) reduced.push_back(sample[p]);
    sample = std::move(reduced);
  }

  std::vector<double> vals;
  vals.reserve(sample.size());
  for (size_t j = 0; j < d; ++j) {
    vals.clear();
    for (size_t i : sample) vals.push_back(data.At(i, j));
    std::sort(vals.begin(), vals.end());
    std::vector<double>& e = edges_[j];
    for (int b = 1; b < kMaxBins; ++b) {
      const size_t pos = vals.size() * static_cast<size_t>(b) /
                         static_cast<size_t>(kMaxBins);
      const double v = vals[std::min(pos, vals.size() - 1)];
      if (e.empty() || v > e.back()) e.push_back(v);
    }
    uint8_t* col = &bins_[j * num_rows_];
    for (size_t i = 0; i < num_rows_; ++i) col[i] = BinOf(j, data.At(i, j));
  }
}

uint8_t FeatureBinner::BinOf(size_t j, double v) const {
  const std::vector<double>& e = edges_[j];
  const size_t b = static_cast<size_t>(
      std::lower_bound(e.begin(), e.end(), v) - e.begin());
  // Values <= e[b] land in bin b; values beyond all edges in the last bin.
  return static_cast<uint8_t>(b);
}

double FeatureBinner::EdgeValue(size_t j, int b) const {
  const std::vector<double>& e = edges_[j];
  if (b < 0 || static_cast<size_t>(b) >= e.size()) {
    return std::numeric_limits<double>::infinity();
  }
  return e[static_cast<size_t>(b)];
}

// Fit-time state. Nodes partition global dataset row ids; the binner's
// matrix, labels and targets are all indexed by them.
struct DecisionTree::BuildContext {
  const FeatureBinner* binner = nullptr;
  const int* labels = nullptr;      // Classification.
  const double* targets = nullptr;  // Regression.
  size_t d = 0;
  size_t features_per_split = 0;
  Rng rng{1};
  FeatureBinner own_binner;  // Standalone fits only.
};

namespace {

double GiniFromCounts(const std::vector<double>& counts, double total) {
  if (total <= 0) return 0;
  double sumsq = 0;
  for (double c : counts) sumsq += c * c;
  return 1.0 - sumsq / (total * total);
}

}  // namespace

int DecisionTree::BuildNode(BuildContext* ctx, std::vector<uint32_t>* rows,
                            size_t begin, size_t end, int depth) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  const size_t m = end - begin;
  AIMAI_CHECK(m > 0);

  // Node statistics.
  std::vector<double> counts;
  double sum = 0, sumsq = 0;
  if (is_regression_) {
    for (size_t i = begin; i < end; ++i) {
      const double t = ctx->targets[(*rows)[i]];
      sum += t;
      sumsq += t * t;
    }
  } else {
    counts.assign(static_cast<size_t>(num_classes_), 0.0);
    for (size_t i = begin; i < end; ++i) {
      counts[static_cast<size_t>(ctx->labels[(*rows)[i]])] += 1;
    }
  }

  auto make_leaf = [&]() {
    Node& leaf = nodes_[static_cast<size_t>(node_id)];
    if (is_regression_) {
      leaf.value = sum / static_cast<double>(m);
    } else {
      leaf.dist.assign(static_cast<size_t>(num_classes_), 0.0);
      for (size_t c = 0; c < counts.size(); ++c) {
        leaf.dist[c] = counts[c] / static_cast<double>(m);
      }
    }
    return node_id;
  };

  const double parent_impurity =
      is_regression_
          ? (sumsq - sum * sum / static_cast<double>(m)) /
                static_cast<double>(m)
          : GiniFromCounts(counts, static_cast<double>(m));

  if (depth >= options_.max_depth || m < 2 * options_.min_samples_leaf ||
      parent_impurity <= options_.min_impurity_decrease) {
    return make_leaf();
  }

  // Candidate features.
  std::vector<size_t> features =
      ctx->rng.SampleWithoutReplacement(ctx->d, ctx->features_per_split);

  int best_feature = -1;
  int best_bin = -1;
  double best_gain = options_.min_impurity_decrease;

  // Histogram buffers (reused across features).
  std::vector<double> h_count(FeatureBinner::kMaxBins);
  std::vector<double> h_sum(FeatureBinner::kMaxBins);
  std::vector<double> h_cls(FeatureBinner::kMaxBins *
                            static_cast<size_t>(std::max(1, num_classes_)));

  for (size_t f : features) {
    const int nbins = ctx->binner->NumBins(f);
    if (nbins < 2) continue;
    const uint8_t* col = ctx->binner->Column(f);
    std::fill(h_count.begin(), h_count.begin() + nbins, 0.0);
    if (is_regression_) {
      std::fill(h_sum.begin(), h_sum.begin() + nbins, 0.0);
      for (size_t i = begin; i < end; ++i) {
        const uint32_t r = (*rows)[i];
        const uint8_t b = col[r];
        h_count[b] += 1;
        h_sum[b] += ctx->targets[r];
      }
      double left_cnt = 0, left_sum = 0;
      for (int b = 0; b + 1 < nbins; ++b) {
        left_cnt += h_count[static_cast<size_t>(b)];
        left_sum += h_sum[static_cast<size_t>(b)];
        const double right_cnt = static_cast<double>(m) - left_cnt;
        if (left_cnt < static_cast<double>(options_.min_samples_leaf) ||
            right_cnt < static_cast<double>(options_.min_samples_leaf)) {
          continue;
        }
        const double right_sum = sum - left_sum;
        // SSE reduction per sample.
        const double gain =
            (left_sum * left_sum / left_cnt +
             right_sum * right_sum / right_cnt - sum * sum /
                 static_cast<double>(m)) / static_cast<double>(m);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_bin = b;
        }
      }
    } else {
      const size_t k = static_cast<size_t>(num_classes_);
      std::fill(h_cls.begin(),
                h_cls.begin() + static_cast<size_t>(nbins) * k, 0.0);
      for (size_t i = begin; i < end; ++i) {
        const uint32_t r = (*rows)[i];
        const uint8_t b = col[r];
        h_cls[static_cast<size_t>(b) * k +
              static_cast<size_t>(ctx->labels[r])] += 1;
        h_count[b] += 1;
      }
      std::vector<double> left(k, 0.0);
      double left_cnt = 0;
      for (int b = 0; b + 1 < nbins; ++b) {
        for (size_t c = 0; c < k; ++c) {
          left[c] += h_cls[static_cast<size_t>(b) * k + c];
        }
        left_cnt += h_count[static_cast<size_t>(b)];
        const double right_cnt = static_cast<double>(m) - left_cnt;
        if (left_cnt < static_cast<double>(options_.min_samples_leaf) ||
            right_cnt < static_cast<double>(options_.min_samples_leaf)) {
          continue;
        }
        double right_gini_num = 0;
        double left_gini_num = 0;
        for (size_t c = 0; c < k; ++c) {
          const double rc = counts[c] - left[c];
          left_gini_num += left[c] * left[c];
          right_gini_num += rc * rc;
        }
        const double gini_l = 1.0 - left_gini_num / (left_cnt * left_cnt);
        const double gini_r = 1.0 - right_gini_num / (right_cnt * right_cnt);
        const double gain = parent_impurity -
                            (left_cnt * gini_l + right_cnt * gini_r) /
                                static_cast<double>(m);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_bin = b;
        }
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition rows by bin <= best_bin.
  const size_t fidx = static_cast<size_t>(best_feature);
  const uint8_t* col = ctx->binner->Column(fidx);
  auto mid_it = std::partition(
      rows->begin() + static_cast<long>(begin),
      rows->begin() + static_cast<long>(end),
      [&](uint32_t r) { return col[r] <= static_cast<uint8_t>(best_bin); });
  const size_t mid =
      static_cast<size_t>(mid_it - rows->begin());
  AIMAI_CHECK(mid > begin && mid < end);

  const int left_id = BuildNode(ctx, rows, begin, mid, depth + 1);
  const int right_id = BuildNode(ctx, rows, mid, end, depth + 1);
  Node& node = nodes_[static_cast<size_t>(node_id)];
  node.feature = best_feature;
  node.threshold = ctx->binner->EdgeValue(fidx, best_bin);
  node.left = left_id;
  node.right = right_id;
  return node_id;
}

namespace {

size_t FeaturesPerSplit(double fraction, size_t d) {
  if (fraction <= 0) {
    return std::max<size_t>(1, static_cast<size_t>(std::sqrt(
                                   static_cast<double>(d))));
  }
  return std::max<size_t>(
      1, std::min(d, static_cast<size_t>(fraction * static_cast<double>(d) +
                                         0.5)));
}

}  // namespace

void DecisionTree::Build(BuildContext* ctx, const Dataset& data,
                         const std::vector<size_t>& rows,
                         const FeatureBinner* shared_binner) {
  AIMAI_CHECK(!rows.empty());
  AIMAI_CHECK(data.n() <= std::numeric_limits<uint32_t>::max());
  nodes_.clear();
  ctx->d = data.d();
  ctx->rng = Rng(options_.seed);
  ctx->features_per_split =
      FeaturesPerSplit(options_.feature_fraction, ctx->d);
  if (shared_binner == nullptr) {
    ctx->own_binner.Fit(data, rows, &ctx->rng);
    shared_binner = &ctx->own_binner;
  }
  AIMAI_CHECK(shared_binner->num_rows() == data.n());
  ctx->binner = shared_binner;
  // Global row ids in the sample's order, duplicates included: nodes read
  // the shared bin matrix directly, with no per-tree copy.
  std::vector<uint32_t> order(rows.begin(), rows.end());
  BuildNode(ctx, &order, 0, order.size(), 0);
}

void DecisionTree::FitClassification(const Dataset& data,
                                     const std::vector<size_t>& rows,
                                     int num_classes,
                                     const FeatureBinner* shared_binner) {
  is_regression_ = false;
  num_classes_ = num_classes;
  BuildContext ctx;
  ctx.labels = data.labels().data();
  Build(&ctx, data, rows, shared_binner);
}

void DecisionTree::FitRegression(const Dataset& data,
                                 const std::vector<size_t>& rows,
                                 const std::vector<double>& targets,
                                 const FeatureBinner* shared_binner) {
  AIMAI_CHECK(targets.size() == data.n());
  is_regression_ = true;
  num_classes_ = 0;
  BuildContext ctx;
  ctx.targets = targets.data();
  Build(&ctx, data, rows, shared_binner);
}

int DecisionTree::FindLeaf(const double* x) const {
  int id = 0;
  while (nodes_[static_cast<size_t>(id)].feature >= 0) {
    const Node& n = nodes_[static_cast<size_t>(id)];
    id = x[n.feature] <= n.threshold ? n.left : n.right;
  }
  return id;
}

const std::vector<double>& DecisionTree::LeafDistribution(
    const double* x) const {
  AIMAI_CHECK(!is_regression_ && !nodes_.empty());
  return nodes_[static_cast<size_t>(FindLeaf(x))].dist;
}

double DecisionTree::PredictValue(const double* x) const {
  AIMAI_CHECK(is_regression_ && !nodes_.empty());
  return nodes_[static_cast<size_t>(FindLeaf(x))].value;
}

void DecisionTree::CompileInto(CompiledForest* out) const {
  AIMAI_CHECK(!nodes_.empty());
  out->BeginTree();
  for (const Node& n : nodes_) {
    if (n.feature >= 0) {
      out->AddSplit(n.feature, n.threshold, n.left, n.right);
    } else if (is_regression_) {
      out->AddLeaf(&n.value);
    } else {
      out->AddLeaf(n.dist.data());
    }
  }
}

void DecisionTree::Save(TokenWriter* w) const {
  w->WriteTag("tree");
  w->WriteInt(num_classes_);
  w->WriteBool(is_regression_);
  w->WriteUInt(nodes_.size());
  for (const Node& n : nodes_) {
    w->WriteInt(n.feature);
    w->WriteDouble(n.threshold);
    w->WriteInt(n.left);
    w->WriteInt(n.right);
    w->WriteDouble(n.value);
    w->WriteDoubleVector(n.dist);
  }
}

void DecisionTree::Load(TokenReader* r) {
  r->ExpectTag("tree");
  num_classes_ = static_cast<int>(r->ReadInt());
  is_regression_ = r->ReadBool();
  const uint64_t n = r->ReadUInt();
  nodes_.assign(n, Node());
  for (uint64_t i = 0; i < n; ++i) {
    Node& node = nodes_[i];
    node.feature = static_cast<int>(r->ReadInt());
    node.threshold = r->ReadDouble();
    node.left = static_cast<int>(r->ReadInt());
    node.right = static_cast<int>(r->ReadInt());
    node.value = r->ReadDouble();
    node.dist = r->ReadDoubleVector();
  }
}

}  // namespace aimai
