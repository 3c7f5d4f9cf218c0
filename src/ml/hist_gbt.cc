#include "ml/hist_gbt.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "common/check.h"
#include "obs/obs.h"

namespace aimai {

namespace {

struct LeafCandidate {
  int node_id = -1;
  // Row range [begin, end) into the shared row-index array.
  size_t begin = 0;
  size_t end = 0;
  double sum_g = 0;
  double sum_h = 0;
  // Best split found for this leaf.
  double gain = 0;
  int feature = -1;
  int bin = -1;

  bool operator<(const LeafCandidate& o) const { return gain < o.gain; }
};

}  // namespace

void HistGradientBoosting::GrowTree(const FeatureBinner& binner,
                                    const std::vector<size_t>& rows,
                                    const std::vector<double>& grad,
                                    const std::vector<double>& hess,
                                    CompiledForest* out) const {
  const size_t d = binner.num_features();

  std::vector<uint32_t> order(rows.begin(), rows.end());

  auto leaf_value = [this](double g, double h) {
    return -g / (h + options_.lambda);
  };
  auto score = [this](double g, double h) {
    return g * g / (h + options_.lambda);
  };

  // Finds the best split for a leaf over all features.
  auto find_best = [&](LeafCandidate* leaf) {
    leaf->gain = 0;
    leaf->feature = -1;
    std::vector<double> hg(FeatureBinner::kMaxBins);
    std::vector<double> hh(FeatureBinner::kMaxBins);
    const double parent = score(leaf->sum_g, leaf->sum_h);
    for (size_t f = 0; f < d; ++f) {
      const int nbins = binner.NumBins(f);
      if (nbins < 2) continue;
      const uint8_t* col = binner.Column(f);
      std::fill(hg.begin(), hg.begin() + nbins, 0.0);
      std::fill(hh.begin(), hh.begin() + nbins, 0.0);
      for (size_t i = leaf->begin; i < leaf->end; ++i) {
        const uint32_t r = order[i];
        const uint8_t b = col[r];
        hg[b] += grad[r];
        hh[b] += hess[r];
      }
      double gl = 0, hl = 0;
      for (int b = 0; b + 1 < nbins; ++b) {
        gl += hg[static_cast<size_t>(b)];
        hl += hh[static_cast<size_t>(b)];
        const double gr = leaf->sum_g - gl;
        const double hr = leaf->sum_h - hl;
        if (hl < options_.min_child_hessian ||
            hr < options_.min_child_hessian) {
          continue;
        }
        const double gain = 0.5 * (score(gl, hl) + score(gr, hr) - parent);
        if (gain > leaf->gain) {
          leaf->gain = gain;
          leaf->feature = static_cast<int>(f);
          leaf->bin = b;
        }
      }
    }
  };

  // Root. Every node starts as a leaf with its Newton value, which it
  // keeps when it splits.
  out->BeginTree();
  const auto add_leaf = [&](double g, double h) {
    const int id = out->AddNode();
    *out->MutablePayload(id) = leaf_value(g, h);
    return id;
  };
  LeafCandidate root;
  root.begin = 0;
  root.end = order.size();
  for (uint32_t r : order) {
    root.sum_g += grad[r];
    root.sum_h += hess[r];
  }
  root.node_id = add_leaf(root.sum_g, root.sum_h);
  find_best(&root);

  std::priority_queue<LeafCandidate> heap;
  if (root.feature >= 0) heap.push(root);
  int num_leaves = 1;

  while (!heap.empty() && num_leaves < options_.max_leaves) {
    LeafCandidate leaf = heap.top();
    heap.pop();
    if (leaf.feature < 0 || leaf.gain <= 1e-12) continue;

    const size_t f = static_cast<size_t>(leaf.feature);
    const uint8_t* col = binner.Column(f);
    auto mid_it =
        std::partition(order.begin() + static_cast<long>(leaf.begin),
                       order.begin() + static_cast<long>(leaf.end),
                       [&](uint32_t r) {
                         return col[r] <= static_cast<uint8_t>(leaf.bin);
                       });
    const size_t mid = static_cast<size_t>(mid_it - order.begin());
    if (mid == leaf.begin || mid == leaf.end) continue;

    LeafCandidate left, right;
    left.begin = leaf.begin;
    left.end = mid;
    right.begin = mid;
    right.end = leaf.end;
    for (size_t i = left.begin; i < left.end; ++i) {
      left.sum_g += grad[order[i]];
      left.sum_h += hess[order[i]];
    }
    right.sum_g = leaf.sum_g - left.sum_g;
    right.sum_h = leaf.sum_h - left.sum_h;

    left.node_id = add_leaf(left.sum_g, left.sum_h);
    right.node_id = add_leaf(right.sum_g, right.sum_h);
    out->SetSplit(leaf.node_id, leaf.feature, binner.EdgeValue(f, leaf.bin),
                  left.node_id, right.node_id);
    ++num_leaves;

    find_best(&left);
    if (left.feature >= 0) heap.push(left);
    find_best(&right);
    if (right.feature >= 0) heap.push(right);
  }
}

void HistGradientBoosting::Fit(const Dataset& train) {
  AIMAI_SPAN("ml.lgbm.fit");
  AIMAI_CHECK(train.n() > 0);
  num_classes_ = std::max(2, train.NumClasses());
  const size_t n = train.n();
  const size_t k = static_cast<size_t>(num_classes_);
  forest_.Reset(1);
  Rng rng(options_.seed);

  std::vector<size_t> all(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  FeatureBinner binner;
  binner.Fit(train, all, &rng);

  std::vector<double> scores(n * k, 0.0);
  std::vector<double> grad(n), hess(n), probs(k);

  for (int round = 0; round < options_.num_rounds; ++round) {
    std::vector<size_t> rows;
    if (options_.subsample >= 1.0) {
      rows = all;
    } else {
      rows = rng.SampleWithoutReplacement(
          n, std::max<size_t>(
                 1, static_cast<size_t>(options_.subsample *
                                        static_cast<double>(n))));
    }
    for (size_t c = 0; c < k; ++c) {
      for (size_t i = 0; i < n; ++i) {
        const double* s = &scores[i * k];
        double mx = s[0];
        for (size_t j = 1; j < k; ++j) mx = std::max(mx, s[j]);
        double denom = 0;
        for (size_t j = 0; j < k; ++j) denom += std::exp(s[j] - mx);
        const double p = std::exp(s[c] - mx) / denom;
        const double y = train.Label(i) == static_cast<int>(c) ? 1.0 : 0.0;
        grad[i] = p - y;
        hess[i] = std::max(1e-9, p * (1.0 - p));
      }
      GrowTree(binner, rows, grad, hess, &forest_);
      const size_t t = forest_.num_trees() - 1;
      for (size_t i = 0; i < n; ++i) {
        scores[i * k + c] +=
            options_.learning_rate * forest_.Leaf(t, train.Row(i))[0];
      }
    }
  }
}

void HistGradientBoosting::Save(TokenWriter* w) const {
  w->WriteTag("hgbt");
  w->WriteInt(num_classes_);
  w->WriteDouble(options_.learning_rate);
  w->WriteUInt(forest_.num_trees());
  for (size_t t = 0; t < forest_.num_trees(); ++t) {
    SaveTreeNodes(forest_, t, /*num_classes=*/0, NodeLayout::kHgbt, w);
  }
}

Status HistGradientBoosting::Load(TokenReader* r) {
  r->ExpectTag("hgbt");
  const int64_t classes = r->ReadInt();
  const double learning_rate = r->ReadDouble();
  const uint64_t nt = r->ReadUInt();
  if (!r->ok()) return r->status();
  if (classes < 2 || classes > DecisionTree::kMaxClasses || nt == 0) {
    return Status::DataLoss("hgbt: bad class or tree count");
  }
  // Trees are read one by one, so a count the stream cannot hold ends in a
  // truncated-stream error.
  CompiledForest loaded;
  loaded.Reset(1);
  for (uint64_t t = 0; t < nt; ++t) {
    const Status st =
        LoadTreeNodes(r, /*num_classes=*/0, NodeLayout::kHgbt, &loaded);
    if (!st.ok()) return st;
  }
  num_classes_ = static_cast<int>(classes);
  options_.learning_rate = learning_rate;
  forest_ = std::move(loaded);
  return Status::Ok();
}

void HistGradientBoosting::PredictProbaInto(const double* x,
                                            double* out) const {
  AIMAI_SPAN("ml.lgbm.predict");
  AIMAI_CHECK(!forest_.empty());
  const size_t k = static_cast<size_t>(num_classes_);
  std::fill(out, out + k, 0.0);
  forest_.AccumulateRoundRobin(x, k, options_.learning_rate, out);
  SoftmaxInPlace(out, k);
}

}  // namespace aimai
