#include "exec/vectorized_executor.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>

#include "common/check.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "obs/obs.h"

namespace aimai {

namespace {

/// Per-thread batch scratch. Chunk capacity is retained across queries, so
/// after warm-up the chunk loop — and the per-query setup — never touch the
/// system allocator. Thread-local because tuning workers execute plans
/// concurrently, each on its own Executor invocation.
thread_local ExecArena t_arena;

bool IsAccessOp(PhysOp op) {
  return op == PhysOp::kTableScan || op == PhysOp::kColumnstoreScan ||
         op == PhysOp::kIndexScan || op == PhysOp::kIndexSeek;
}

// Same semantics as the row engine's stat recording (executor.cc).
void Record(PlanNode* node, size_t out_rows) {
  node->stats.actual_rows += static_cast<double>(out_rows);
  node->stats.actual_executions += 1;
  node->stats.executed = true;
}

/// A conjunction term resolved to a raw column view + flattened bounds.
/// Built once per node; the chunk loop runs pure pointer arithmetic.
struct ResolvedPred {
  ColumnView view;
  BoundsSpec bounds;
};

std::vector<ResolvedPred> ResolvePreds(const Database& db, const Table& table,
                                       const std::vector<Predicate>& preds) {
  std::vector<ResolvedPred> out;
  const auto col_bounds = ResolveConjunction(db, preds);
  out.reserve(col_bounds.size());
  for (const auto& [col, b] : col_bounds) {
    out.push_back({ColumnView::Of(table.column(static_cast<size_t>(col))),
                   BoundsSpec::From(b)});
  }
  return out;
}

// Matches VecHash in operators.cc so group-key hashing semantics align.
struct VecHash {
  size_t operator()(const std::vector<double>& v) const {
    size_t h = 1469598103934665603ULL;
    for (double d : v) {
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      std::memcpy(&bits, &d, sizeof(d));
      h ^= bits;
      h *= 1099511628211ULL;
    }
    return h;
  }
};

/// Streaming grouped aggregation over selection-vector chunks. Groups are
/// registered in first-seen order and every accumulator advances
/// sequentially in global row order (carried across chunks), matching the
/// row engine's AggregateRows bit-for-bit: same group order, same FP
/// accumulation sequence per group, same finalization formulas.
class GroupedAggregator {
 public:
  GroupedAggregator(const Table& table, const std::vector<ColumnRef>& group_by,
                    const std::vector<AggItem>& aggs)
      : ng_(group_by.size()), na_(aggs.size()) {
    group_cols_.reserve(ng_);
    for (const ColumnRef& c : group_by) {
      group_cols_.push_back(
          ColumnView::Of(table.column(static_cast<size_t>(c.column_id))));
    }
    funcs_.reserve(na_);
    agg_cols_.resize(na_);
    for (size_t a = 0; a < na_; ++a) {
      funcs_.push_back(aggs[a].func);
      if (aggs[a].func != AggFunc::kCount) {
        agg_cols_[a] = ColumnView::Of(
            table.column(static_cast<size_t>(aggs[a].col.column_id)));
      }
    }
    key_scratch_.resize(ng_);
  }

  void Consume(const uint32_t* ids, size_t n) {
    if (ng_ == 0) {
      ConsumeSingleGroup(ids, n);
      return;
    }
    // Pass 1: resolve every row's group index into a chunk-local array
    // (registering new groups in first-seen order, like the row path).
    // Pass 2: one typed scatter-accumulate sweep per aggregate column.
    // Each (group, aggregate) slot still receives its updates for rows in
    // id order, so the FP sequence is exactly the per-row loop's.
    grp_.resize(n);
    const ColumnView& key = group_cols_[0];
    if (ng_ == 1 && key.type == DataType::kString) {
      ResolveDirect(key.codes, ids, n);
    } else if (ng_ == 1 && key.type == DataType::kInt64) {
      ResolveDirect(key.i64, ids, n);
    } else {
      for (size_t i = 0; i < n; ++i) grp_[i] = ResolveHashed(ids[i]);
    }
    for (size_t i = 0; i < n; ++i) counts_[grp_[i]] += 1;
    // Each aggregate sweeps only the accumulator Finalize reads for it.
    for (size_t a = 0; a < na_; ++a) {
      const AggFunc f = funcs_[a];
      if (f == AggFunc::kCount) continue;
      const bool sum = f == AggFunc::kSum || f == AggFunc::kAvg;
      AccumulateNumericGrouped(agg_cols_[a], ids, grp_.data(), n, na_, a,
                               sum ? sums_.data() : nullptr,
                               f == AggFunc::kMin ? mins_.data() : nullptr,
                               f == AggFunc::kMax ? maxs_.data() : nullptr);
    }
  }

  AggResult Finalize() {
    AggResult out;
    const size_t n_groups = counts_.size();
    out.group_keys.reserve(n_groups);
    out.agg_values.reserve(n_groups);
    for (size_t g = 0; g < n_groups; ++g) {
      out.group_keys.push_back(ng_ == 0 ? std::vector<double>{} : keys_[g]);
      std::vector<double> vals(na_, 0.0);
      const size_t base = g * na_;
      for (size_t a = 0; a < na_; ++a) {
        switch (funcs_[a]) {
          case AggFunc::kCount:
            vals[a] = counts_[g];
            break;
          case AggFunc::kSum:
            vals[a] = sums_[base + a];
            break;
          case AggFunc::kAvg:
            vals[a] = counts_[g] > 0 ? sums_[base + a] / counts_[g] : 0;
            break;
          case AggFunc::kMin:
            vals[a] = mins_[base + a];
            break;
          case AggFunc::kMax:
            vals[a] = maxs_[base + a];
            break;
        }
      }
      out.agg_values.push_back(std::move(vals));
    }
    return out;
  }

 private:
  /// Dictionary codes and small non-negative integers index `direct_`
  /// instead of the hash map. Such keys are exact as doubles and equal only
  /// when identical, so the table resolves exactly the groups the map
  /// would; keys outside [0, kDirectKeys) take the map.
  template <typename T>
  void ResolveDirect(const T* keys, const uint32_t* ids, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const int64_t k = keys[ids[i]];
      if (k < 0 || k >= kDirectKeys) {
        grp_[i] = ResolveHashed(ids[i]);
        continue;
      }
      const size_t slot = static_cast<size_t>(k);
      if (slot >= direct_.size()) direct_.resize(slot + 1, kNoGroup);
      if (direct_[slot] == kNoGroup) {
        key_scratch_[0] = static_cast<double>(k);
        direct_[slot] = Register();
      }
      grp_[i] = direct_[slot];
    }
  }

  uint32_t ResolveHashed(uint32_t r) {
    for (size_t j = 0; j < ng_; ++j) {
      key_scratch_[j] = group_cols_[j].NumericAt(r);
    }
    if (has_prev_ && key_scratch_ == prev_key_) {
      return prev_idx_;  // Clustered/sorted input skips the hash probe.
    }
    auto it = index_.find(key_scratch_);
    if (it == index_.end()) it = index_.emplace(key_scratch_, Register()).first;
    prev_key_ = key_scratch_;
    prev_idx_ = it->second;
    has_prev_ = true;
    return prev_idx_;
  }

  /// Registers key_scratch_ as the next group.
  uint32_t Register() {
    const uint32_t g = static_cast<uint32_t>(keys_.size());
    keys_.push_back(key_scratch_);
    AppendGroupSlots();
    return g;
  }

  void AppendGroupSlots() {
    counts_.push_back(0);
    sums_.resize(sums_.size() + na_, 0.0);
    mins_.resize(mins_.size() + na_, std::numeric_limits<double>::infinity());
    maxs_.resize(maxs_.size() + na_,
                 -std::numeric_limits<double>::infinity());
  }



  // COUNT(*)-style single group: fused per-column sweeps. Each aggregate
  // column still accumulates sequentially in row order, so sums stay
  // FP-identical; counts are exact integers up to 2^53 either way.
  void ConsumeSingleGroup(const uint32_t* ids, size_t n) {
    if (n == 0) return;
    if (counts_.empty()) AppendGroupSlots();
    counts_[0] += static_cast<double>(n);
    for (size_t a = 0; a < na_; ++a) {
      if (funcs_[a] == AggFunc::kCount) continue;
      AccumulateNumeric(agg_cols_[a], ids, n, &sums_[a], &mins_[a], &maxs_[a]);
    }
  }

  const size_t ng_;
  const size_t na_;
  std::vector<ColumnView> group_cols_;
  std::vector<ColumnView> agg_cols_;
  std::vector<AggFunc> funcs_;

  // Group state, SoA, in first-seen order. sums_/mins_/maxs_ are
  // group-major: slot [g * na_ + a].
  std::vector<double> counts_;
  std::vector<double> sums_;
  std::vector<double> mins_;
  std::vector<double> maxs_;
  std::vector<std::vector<double>> keys_;
  std::unordered_map<std::vector<double>, uint32_t, VecHash> index_;
  static constexpr int64_t kDirectKeys = int64_t{1} << 16;
  static constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> direct_;  // Group per direct key, or kNoGroup.

  std::vector<double> key_scratch_;
  std::vector<uint32_t> grp_;  // Chunk-local group index per row.
  std::vector<double> prev_key_;
  uint32_t prev_idx_ = 0;
  bool has_prev_ = false;
};

}  // namespace

bool VectorizedExecutor::CanExecute(const PlanNode& root) {
  const PlanNode* n = &root;
  while (!IsAccessOp(n->op)) {
    switch (n->op) {
      case PhysOp::kKeyLookup:
      case PhysOp::kFilter:
      case PhysOp::kSort:
      case PhysOp::kHashAggregate:
      case PhysOp::kStreamAggregate:
      case PhysOp::kTop:
        break;
      default:
        return false;  // Joins (and anything new) stay on the row engine.
    }
    if (n->children.size() != 1) return false;
    n = n->child(0);
  }
  if (!n->children.empty() || n->table_id < 0) return false;
  const int leaf_table = n->table_id;

  // Every predicate and referenced column must live on the leaf table so
  // the whole pipeline reads one table's columns.
  bool ok = true;
  root.Visit([&](const PlanNode& m) {
    for (const Predicate& p : m.residual_preds) ok &= p.table_id == leaf_table;
    for (const Predicate& p : m.seek_preds) ok &= p.table_id == leaf_table;
    for (const SortKey& k : m.sort_keys) ok &= k.col.table_id == leaf_table;
    for (const ColumnRef& c : m.group_by) ok &= c.table_id == leaf_table;
    for (const AggItem& a : m.aggregates) {
      if (a.func != AggFunc::kCount) ok &= a.col.table_id == leaf_table;
    }
  });
  return ok;
}

ExecResult VectorizedExecutor::Execute(PlanNode* root) {
  AIMAI_SPAN("exec.vectorized");

  // Decompose the unary chain. chain is top-down; chain.back() (if any)
  // sits directly above the access leaf.
  std::vector<PlanNode*> chain;
  PlanNode* node = root;
  while (!IsAccessOp(node->op)) {
    chain.push_back(node);
    node = node->child(0);
  }
  PlanNode* leaf = node;
  const Table& table = db_->table(leaf->table_id);

  // The bottom pipeline segment — the leaf plus every KeyLookup / Filter
  // directly above it — runs fused inside the chunk loop.
  int upper_end = static_cast<int>(chain.size());  // Chain[0, upper_end) are
                                                   // post-segment operators.
  struct SegmentStep {
    PlanNode* node;
    std::vector<ResolvedPred> preds;  // Empty for KeyLookup.
    size_t out_rows = 0;
  };
  std::vector<SegmentStep> steps;  // Bottom-up order.
  while (upper_end > 0 && (chain[upper_end - 1]->op == PhysOp::kKeyLookup ||
                           chain[upper_end - 1]->op == PhysOp::kFilter)) {
    PlanNode* s = chain[upper_end - 1];
    SegmentStep st;
    st.node = s;
    if (s->op == PhysOp::kFilter) {
      AIMAI_CHECK(!s->residual_preds.empty());
      st.preds = ResolvePreds(*db_, table, s->residual_preds);
    }
    steps.push_back(std::move(st));
    --upper_end;
  }
  // Fuse aggregation when it directly consumes the segment (no sort in
  // between): rows then never materialize at all.
  PlanNode* fused_agg = nullptr;
  if (upper_end > 0 &&
      (chain[upper_end - 1]->op == PhysOp::kHashAggregate ||
       chain[upper_end - 1]->op == PhysOp::kStreamAggregate)) {
    fused_agg = chain[upper_end - 1];
    --upper_end;
  }

  const std::vector<ResolvedPred> leaf_preds =
      ResolvePreds(*db_, table, leaf->residual_preds);

  // Candidate rows, in exactly the row engine's iteration order.
  std::span<const uint32_t> sparse;  // Index scan / seek hits.
  bool dense = false;
  size_t total = 0;
  switch (leaf->op) {
    case PhysOp::kTableScan:
    case PhysOp::kColumnstoreScan:
      dense = true;
      total = table.num_rows();
      leaf->stats.actual_access_rows += static_cast<double>(table.num_rows());
      break;
    case PhysOp::kIndexScan: {
      const BTreeIndex* idx = indexes_->GetOrBuild(leaf->index);
      sparse = idx->Seek(KeyRange{});
      total = sparse.size();
      leaf->stats.actual_access_rows += static_cast<double>(table.num_rows());
      break;
    }
    case PhysOp::kIndexSeek: {
      const BTreeIndex* idx = indexes_->GetOrBuild(leaf->index);
      sparse = idx->Seek(BuildSeekRange(*db_, *leaf));
      total = sparse.size();
      leaf->stats.actual_access_rows += static_cast<double>(sparse.size());
      break;
    }
    default:
      AIMAI_CHECK_MSG(false, "not an access operator");
  }

  t_arena.Reset();
  uint32_t* sel = t_arena.Alloc<uint32_t>(kBatchRows);

  std::unique_ptr<GroupedAggregator> agg;
  if (fused_agg != nullptr) {
    agg = std::make_unique<GroupedAggregator>(table, fused_agg->group_by,
                                              fused_agg->aggregates);
  }
  // Unfused output: the survivors append straight into the result rows
  // (one slot per tuple: the leaf table's row id).
  ExecResult result;
  std::vector<uint32_t>& survivors = result.rows.ids;
  if (fused_agg == nullptr) {
    result.rows.tables = {leaf->table_id};
    const double est = steps.empty() ? leaf->stats.est_rows
                                     : steps.back().node->stats.est_rows;
    survivors.reserve(std::min(
        total, static_cast<size_t>(std::max(0.0, est))));
  }

  size_t leaf_out = 0;
  for (size_t base = 0; base < total; base += kBatchRows) {
    const size_t m = std::min(kBatchRows, total - base);
    const uint32_t* cur;
    size_t cnt;
    if (dense) {
      if (!leaf_preds.empty()) {
        // First predicate filters straight off the dense row range — no
        // iota materialization, no gather indirection.
        cnt = FilterDense(leaf_preds[0].view, static_cast<uint32_t>(base),
                          static_cast<uint32_t>(base + m),
                          leaf_preds[0].bounds, sel);
        for (size_t p = 1; p < leaf_preds.size(); ++p) {
          cnt = FilterGather(leaf_preds[p].view, sel, cnt,
                             leaf_preds[p].bounds, sel);
        }
      } else {
        Iota(sel, static_cast<uint32_t>(base), m);
        cnt = m;
      }
      cur = sel;
    } else {
      cur = sparse.data() + base;
      cnt = m;
      for (const ResolvedPred& p : leaf_preds) {
        cnt = FilterGather(p.view, cur, cnt, p.bounds, sel);
        cur = sel;
      }
    }
    leaf_out += cnt;

    for (SegmentStep& st : steps) {
      for (const ResolvedPred& p : st.preds) {
        cnt = FilterGather(p.view, cur, cnt, p.bounds, sel);
        cur = sel;
      }
      st.out_rows += cnt;
    }

    if (agg != nullptr) {
      agg->Consume(cur, cnt);
    } else if (cnt > 0) {
      survivors.insert(survivors.end(), cur, cur + cnt);
    }
  }

  Record(leaf, leaf_out);
  for (SegmentStep& st : steps) Record(st.node, st.out_rows);

  if (agg != nullptr) {
    result.is_agg = true;
    result.agg = agg->Finalize();
    Record(fused_agg, result.agg.size());
  }

  // Post-segment operators (sort / aggregate-over-sorted / top / residual
  // filters above a sort), bottom-up — same algorithms as the row engine.
  for (int i = upper_end - 1; i >= 0; --i) {
    PlanNode* op = chain[i];
    switch (op->op) {
      case PhysOp::kKeyLookup:
        break;  // Lookup fetches columns; row composition is unchanged.
      case PhysOp::kFilter: {
        AIMAI_CHECK(!result.is_agg);
        AIMAI_CHECK(!op->residual_preds.empty());
        const auto preds = ResolvePreds(*db_, table, op->residual_preds);
        std::erase_if(result.rows.ids, [&preds](uint32_t r) {
          for (const ResolvedPred& p : preds) {
            if (!p.bounds.Pass(p.view.NumericAt(r))) return true;
          }
          return false;
        });
        break;
      }
      case PhysOp::kSort: {
        if (result.is_agg) {
          SortAggResult(&result.agg);
        } else {
          SortRows(*db_, &result.rows, op->sort_keys);
        }
        break;
      }
      case PhysOp::kHashAggregate:
      case PhysOp::kStreamAggregate: {
        AIMAI_CHECK(!result.is_agg);
        GroupedAggregator ga(table, op->group_by, op->aggregates);
        const std::vector<uint32_t>& ids = result.rows.ids;
        for (size_t idx = 0; idx < ids.size(); idx += kBatchRows) {
          ga.Consume(ids.data() + idx, std::min(kBatchRows, ids.size() - idx));
        }
        result.rows = RowSet{};
        result.is_agg = true;
        result.agg = ga.Finalize();
        break;
      }
      case PhysOp::kTop: {
        const size_t n_top = static_cast<size_t>(op->top_n);
        if (result.is_agg) {
          if (result.agg.size() > n_top) {
            result.agg.group_keys.resize(n_top);
            result.agg.agg_values.resize(n_top);
          }
        } else {
          result.rows.Truncate(n_top);
        }
        break;
      }
      default:
        AIMAI_CHECK_MSG(false, "unsupported vectorized operator");
    }
    Record(op, result.size());
  }
  return result;
}

}  // namespace aimai
