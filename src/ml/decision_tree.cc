#include "ml/decision_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.h"

namespace aimai {

void FeatureBinner::Fit(const Dataset& data, const std::vector<size_t>& rows,
                        Rng* rng) {
  const size_t d = data.d();
  edges_.assign(d, {});
  num_rows_ = data.n();
  AIMAI_CHECK(num_rows_ <= std::numeric_limits<uint32_t>::max());
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
  bool sample_is_every_row = sample.size() == num_rows_;
  for (size_t i = 0; sample_is_every_row && i < sample.size(); ++i) {
    sample_is_every_row = sample[i] == i;
  }

  // (value, row) pairs sorted by value alone: std::sort's moves depend
  // only on comparison outcomes, so the values come out in exactly the
  // order sorting the bare values gives (signed zeros included), and the
  // edges are the same bits.
  using Entry = std::pair<double, uint32_t>;
  const auto by_value = [](const Entry& x, const Entry& y) {
    return x.first < y.first;
  };
  std::vector<Entry> sorted;
  sorted.reserve(sample.size());
  for (size_t j = 0; j < d; ++j) {
    sorted.clear();
    for (size_t i : sample) {
      sorted.emplace_back(data.At(i, j), static_cast<uint32_t>(i));
    }
    std::sort(sorted.begin(), sorted.end(), by_value);
    std::vector<double>& e = edges_[j];
    for (int b = 1; b < kMaxBins; ++b) {
      const size_t pos = sorted.size() * static_cast<size_t>(b) /
                         static_cast<size_t>(kMaxBins);
      const double v = sorted[std::min(pos, sorted.size() - 1)].first;
      if (e.empty() || v > e.back()) e.push_back(v);
    }
    uint8_t* col = &bins_[j * num_rows_];
    if (!sample_is_every_row) {
      for (size_t i = 0; i < num_rows_; ++i) col[i] = BinOf(j, data.At(i, j));
      continue;
    }
    // The sort holds every row: walking values upward, a row's bin (the
    // number of edges below its value, as in BinOf) only grows.
    size_t bin = 0;
    for (const Entry& x : sorted) {
      while (bin < e.size() && e[bin] < x.first) ++bin;
      col[x.second] = static_cast<uint8_t>(bin);
    }
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

namespace {

// One node sample: a global row id and how many bootstrap draws it stands
// for. A classification fit visits each distinct sample row once with its
// multiplicity as the weight; a regression fit keeps every draw as its own
// sample (weight 1), in the sample's order, because its target sums are
// rounded in that order.
struct Sample {
  uint32_t row;
  uint32_t weight;
};

// Class counts go to kLanes interleaved histograms, so consecutive samples
// in one bin do not serialize on one counter; the scan sums the lanes.
// Counts are integers, so the sums are exact.
constexpr size_t kLanes = 4;
using Lanes = std::array<uint32_t*, kLanes>;

// The best split of a node so far. `gain` starts at the node's
// min_impurity_decrease: a split must beat it.
struct SplitChoice {
  double gain;
  int feature = -1;
  int bin = -1;
};

// What the split scans of one node read.
struct NodeView {
  const Sample* samples;
  size_t begin;
  size_t end;
  size_t m;  // Draws: sample weights summed.
  size_t min_leaf;
  double parent_impurity;
  const uint32_t* counts;  // Classification: per class.
  double sum;              // Regression: target sum, in sample order.
};

// Sums bin `b`'s k cells over the lanes into `out`, zeroes them, and
// returns their total.
template <size_t K>
uint32_t DrainBin(const Lanes& lane, size_t k, size_t b, uint32_t* out) {
  if constexpr (K > 0) k = K;
  uint32_t total = 0;
  for (size_t c = 0; c < k; ++c) {
    const size_t cell = b * k + c;
    const uint32_t v =
        lane[0][cell] + lane[1][cell] + lane[2][cell] + lane[3][cell];
    lane[0][cell] = lane[1][cell] = lane[2][cell] = lane[3][cell] = 0;
    out[c] += v;
    total += v;
  }
  return total;
}

// Both scans evaluate a split after each occupied bin but the highest
// (whose split would leave the right side empty). An empty bin would
// repeat the partition, and so the gain, of the occupied bin below it;
// gains must beat the best strictly, so that lower bin's split is the one
// a scan over every bin keeps.

// Gini scan of feature `f` (bin column `col`). K > 0 fixes the class
// count at compile time, which unrolls the per-class loops; K == 0 reads
// it from `k`. `left_buf` holds k counters.
template <size_t K>
void ScanClassFeature(const NodeView& node, const int* labels, size_t k,
                      const Lanes& lane, uint32_t* left_buf, int f,
                      const uint8_t* col, SplitChoice* best) {
  if constexpr (K > 0) k = K;
  uint64_t occupied = 0;
  size_t i = node.begin;
  for (; i + kLanes <= node.end; i += kLanes) {
    for (size_t l = 0; l < kLanes; ++l) {
      const Sample s = node.samples[i + l];
      const uint8_t b = col[s.row];
      occupied |= uint64_t{1} << b;
      lane[l][b * k + static_cast<size_t>(labels[s.row])] += s.weight;
    }
  }
  for (; i < node.end; ++i) {
    const Sample s = node.samples[i];
    const uint8_t b = col[s.row];
    occupied |= uint64_t{1} << b;
    lane[0][b * k + static_cast<size_t>(labels[s.row])] += s.weight;
  }
  uint32_t left_fixed[K > 0 ? K : 1] = {};
  uint32_t* left = K > 0 ? left_fixed : left_buf;
  if constexpr (K == 0) std::fill(left, left + k, 0);
  const double md = static_cast<double>(node.m);
  const int top = 63 - std::countl_zero(occupied);
  uint32_t left_cnt = 0;
  for (uint64_t bits = occupied; bits != 0; bits &= bits - 1) {
    const int b = std::countr_zero(bits);
    left_cnt += DrainBin<K>(lane, k, static_cast<size_t>(b), left);
    if (b == top) break;
    const size_t right_cnt = node.m - left_cnt;
    if (left_cnt < node.min_leaf || right_cnt < node.min_leaf) continue;
    const double lc = static_cast<double>(left_cnt);
    const double rc_total = static_cast<double>(right_cnt);
    double right_gini_num = 0;
    double left_gini_num = 0;
    for (size_t c = 0; c < k; ++c) {
      const double lx = static_cast<double>(left[c]);
      const double rx = static_cast<double>(node.counts[c] - left[c]);
      left_gini_num += lx * lx;
      right_gini_num += rx * rx;
    }
    const double gini_l = 1.0 - left_gini_num / (lc * lc);
    const double gini_r = 1.0 - right_gini_num / (rc_total * rc_total);
    const double gain =
        node.parent_impurity - (lc * gini_l + rc_total * gini_r) / md;
    if (gain > best->gain) *best = {gain, f, b};
  }
}

// Variance-reduction scan of feature `f`: counts in lanes, target sums in
// one array `h_sum` (kMaxBins, zero between uses), added in sample order.
void ScanRegressionFeature(const NodeView& node, const double* targets,
                           const Lanes& lane, double* h_sum, int f,
                           const uint8_t* col, SplitChoice* best) {
  uint64_t occupied = 0;
  for (size_t i = node.begin; i < node.end; ++i) {
    const uint32_t r = node.samples[i].row;
    const uint8_t b = col[r];
    occupied |= uint64_t{1} << b;
    lane[i % kLanes][b] += 1;
    h_sum[b] += targets[r];
  }
  const double md = static_cast<double>(node.m);
  const double sum = node.sum;
  const int top = 63 - std::countl_zero(occupied);
  uint32_t left_cnt = 0;
  double left_sum = 0;
  for (uint64_t bits = occupied; bits != 0; bits &= bits - 1) {
    const int b = std::countr_zero(bits);
    DrainBin<1>(lane, 1, static_cast<size_t>(b), &left_cnt);
    left_sum += h_sum[b];
    h_sum[b] = 0;
    if (b == top) break;
    const size_t right_cnt = node.m - left_cnt;
    if (left_cnt < node.min_leaf || right_cnt < node.min_leaf) continue;
    const double lc = static_cast<double>(left_cnt);
    const double rc = static_cast<double>(right_cnt);
    const double right_sum = sum - left_sum;
    // SSE reduction per sample.
    const double gain = (left_sum * left_sum / lc +
                         right_sum * right_sum / rc - sum * sum / md) /
                        md;
    if (gain > best->gain) *best = {gain, f, b};
  }
}

double GiniFromCounts(const std::vector<uint32_t>& counts, double total) {
  if (total <= 0) return 0;
  double sumsq = 0;
  for (uint32_t c : counts) {
    const double x = static_cast<double>(c);
    sumsq += x * x;
  }
  return 1.0 - sumsq / (total * total);
}

}  // namespace

// Fit-time state. Nodes partition global dataset row ids; the binner's
// matrix, labels and targets are all indexed by them.
struct DecisionTree::BuildContext {
  const FeatureBinner* binner = nullptr;
  const int* labels = nullptr;      // Classification.
  const double* targets = nullptr;  // Regression.
  size_t d = 0;
  size_t features_per_split = 0;
  size_t k = 1;  // Histogram cells per bin: classes, or 1 for regression.
  Rng rng{1};
  FeatureBinner own_binner;  // Standalone fits only.
  std::vector<Sample> samples;

  // Per-node scratch. A node is done with it before it recurses.
  std::vector<size_t> features;
  std::vector<uint32_t> counts;  // Per class.
  std::vector<uint32_t> left;    // Per class.
  std::vector<uint32_t> lanes;   // kLanes x kMaxBins x k, zero between uses.
  std::vector<double> h_sum;     // kMaxBins, zero between uses.
};

int DecisionTree::BuildNode(BuildContext* ctx, size_t begin, size_t end,
                            int depth) {
  const int node_id = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  Sample* const samples = ctx->samples.data();

  // Node statistics. m counts draws: sample weights summed.
  size_t m = 0;
  double sum = 0, sumsq = 0;
  if (is_regression_) {
    m = end - begin;
    for (size_t i = begin; i < end; ++i) {
      const double t = ctx->targets[samples[i].row];
      sum += t;
      sumsq += t * t;
    }
  } else {
    ctx->counts.assign(static_cast<size_t>(num_classes_), 0);
    for (size_t i = begin; i < end; ++i) {
      ctx->counts[static_cast<size_t>(ctx->labels[samples[i].row])] +=
          samples[i].weight;
      m += samples[i].weight;
    }
  }
  AIMAI_CHECK(m > 0);
  const double md = static_cast<double>(m);

  auto make_leaf = [&]() {
    Node& leaf = nodes_[static_cast<size_t>(node_id)];
    if (is_regression_) {
      leaf.value = sum / md;
    } else {
      leaf.dist.assign(static_cast<size_t>(num_classes_), 0.0);
      for (size_t c = 0; c < ctx->counts.size(); ++c) {
        leaf.dist[c] = static_cast<double>(ctx->counts[c]) / md;
      }
    }
    return node_id;
  };

  const double parent_impurity =
      is_regression_ ? (sumsq - sum * sum / md) / md
                     : GiniFromCounts(ctx->counts, md);

  if (depth >= options_.max_depth || m < 2 * options_.min_samples_leaf ||
      parent_impurity <= options_.min_impurity_decrease) {
    return make_leaf();
  }

  // Candidate features.
  ctx->rng.SampleWithoutReplacement(ctx->d, ctx->features_per_split,
                                    &ctx->features);

  const NodeView view{.samples = samples,
                      .begin = begin,
                      .end = end,
                      .m = m,
                      .min_leaf = options_.min_samples_leaf,
                      .parent_impurity = parent_impurity,
                      .counts = ctx->counts.data(),
                      .sum = sum};
  const size_t lane_size = FeatureBinner::kMaxBins * ctx->k;
  const Lanes lane = {ctx->lanes.data(), ctx->lanes.data() + lane_size,
                      ctx->lanes.data() + 2 * lane_size,
                      ctx->lanes.data() + 3 * lane_size};
  SplitChoice best{options_.min_impurity_decrease};
  for (size_t f : ctx->features) {
    if (ctx->binner->NumBins(f) < 2) continue;
    const uint8_t* col = ctx->binner->Column(f);
    const int fi = static_cast<int>(f);
    if (is_regression_) {
      ScanRegressionFeature(view, ctx->targets, lane, ctx->h_sum.data(), fi,
                            col, &best);
      continue;
    }
    // The learn stage's pair forests have three classes (kNumPairLabels).
    if (ctx->k == 3) {
      ScanClassFeature<3>(view, ctx->labels, 3, lane, nullptr, fi, col,
                          &best);
    } else {
      ScanClassFeature<0>(view, ctx->labels, ctx->k, lane, ctx->left.data(),
                          fi, col, &best);
    }
  }
  if (best.feature < 0) return make_leaf();

  // Partition samples by bin <= best.bin. Regression relies on this being
  // the same std::partition over the same sequence as before, since child
  // sums follow sample order.
  const size_t fidx = static_cast<size_t>(best.feature);
  const uint8_t* col = ctx->binner->Column(fidx);
  Sample* mid_it = std::partition(
      samples + begin, samples + end, [&](const Sample& s) {
        return col[s.row] <= static_cast<uint8_t>(best.bin);
      });
  const size_t mid = static_cast<size_t>(mid_it - samples);
  AIMAI_CHECK(mid > begin && mid < end);

  const int left_id = BuildNode(ctx, begin, mid, depth + 1);
  const int right_id = BuildNode(ctx, mid, end, depth + 1);
  Node& node = nodes_[static_cast<size_t>(node_id)];
  node.feature = best.feature;
  node.threshold = ctx->binner->EdgeValue(fidx, best.bin);
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
  AIMAI_CHECK(rows.size() <= std::numeric_limits<uint32_t>::max());
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
  ctx->k = is_regression_ ? 1 : static_cast<size_t>(num_classes_);
  ctx->left.assign(ctx->k, 0);
  ctx->lanes.assign(kLanes * FeatureBinner::kMaxBins * ctx->k, 0);
  ctx->h_sum.assign(FeatureBinner::kMaxBins, 0.0);
  // Global row ids: nodes read the shared bin matrix directly, with no
  // per-tree copy. Classification samples are the distinct rows, each
  // weighted by its number of draws.
  ctx->samples.clear();
  if (is_regression_) {
    for (size_t r : rows) {
      ctx->samples.push_back({static_cast<uint32_t>(r), 1});
    }
  } else {
    std::vector<uint32_t> draws(data.n(), 0);
    for (size_t r : rows) ++draws[r];
    for (size_t r = 0; r < draws.size(); ++r) {
      if (draws[r] > 0) {
        ctx->samples.push_back({static_cast<uint32_t>(r), draws[r]});
      }
    }
  }
  BuildNode(ctx, 0, ctx->samples.size(), 0);
}

void DecisionTree::FitClassification(const Dataset& data,
                                     const std::vector<size_t>& rows,
                                     int num_classes,
                                     const FeatureBinner* shared_binner) {
  AIMAI_CHECK(num_classes >= 1);
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

int DecisionTree::MaxFeature() const {
  int max_feature = -1;
  for (const Node& n : nodes_) max_feature = std::max(max_feature, n.feature);
  return max_feature;
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

Status DecisionTree::Load(TokenReader* r) {
  r->ExpectTag("tree");
  const int64_t classes = r->ReadInt();
  const bool regression = r->ReadBool();
  const uint64_t n = r->ReadUInt();
  if (!r->ok()) return r->status();
  if (regression ? classes != 0 : (classes < 1 || classes > kMaxClasses)) {
    return Status::DataLoss("tree: bad class count");
  }
  if (n == 0 || n > static_cast<uint64_t>(std::numeric_limits<int>::max())) {
    return Status::DataLoss("tree: bad node count");
  }
  const size_t dist_size = static_cast<size_t>(classes);
  // Nodes are read one by one, so a node count the stream cannot hold
  // ends in a truncated-stream error, not in a huge allocation.
  std::vector<Node> nodes;
  for (uint64_t i = 0; i < n; ++i) {
    Node node;
    const int64_t feature = r->ReadInt();
    node.threshold = r->ReadDouble();
    const int64_t left = r->ReadInt();
    const int64_t right = r->ReadInt();
    node.value = r->ReadDouble();
    node.dist = r->ReadDoubleVector();
    if (!r->ok()) return r->status();
    if (feature < -1 || feature > std::numeric_limits<int>::max()) {
      return Status::DataLoss("tree: bad split feature");
    }
    node.feature = static_cast<int>(feature);
    if (node.feature >= 0) {
      // Nodes are saved in preorder: children come after their parent, so
      // in-range child ids cannot form a cycle.
      const auto is_child = [&](int64_t id) {
        return id > static_cast<int64_t>(i) && id < static_cast<int64_t>(n);
      };
      if (!is_child(left) || !is_child(right)) {
        return Status::DataLoss("tree: child id out of range");
      }
      node.left = static_cast<int>(left);
      node.right = static_cast<int>(right);
    } else if (node.dist.size() != dist_size) {
      return Status::DataLoss("tree: leaf distribution size mismatch");
    }
    nodes.push_back(std::move(node));
  }
  num_classes_ = static_cast<int>(classes);
  is_regression_ = regression;
  nodes_ = std::move(nodes);
  return Status::Ok();
}

Status LoadTrees(TokenReader* r, int num_classes,
                 std::vector<std::unique_ptr<DecisionTree>>* trees) {
  const uint64_t n = r->ReadUInt();
  if (!r->ok()) return r->status();
  if (n == 0) return Status::DataLoss("ensemble: no trees");
  // Trees are read one by one: a tree count the stream cannot hold ends
  // in a truncated-stream error.
  std::vector<std::unique_ptr<DecisionTree>> loaded;
  for (uint64_t i = 0; i < n; ++i) {
    auto t = std::make_unique<DecisionTree>();
    const Status st = t->Load(r);
    if (!st.ok()) return st;
    if (t->is_regression() != (num_classes == 0) ||
        t->num_classes() != num_classes) {
      return Status::DataLoss("ensemble: tree kind does not match");
    }
    loaded.push_back(std::move(t));
  }
  *trees = std::move(loaded);
  return Status::Ok();
}

}  // namespace aimai
