#include "exec/vectorized_executor.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <utility>

#include "common/check.h"
#include "exec/executor.h"
#include "exec/kernels.h"
#include "obs/obs.h"

namespace aimai {

namespace {

/// Per-thread batch scratch. Chunk capacity is retained across queries, so
/// after warm-up the chunk loops — and the per-query setup — never touch
/// the system allocator. Thread-local because tuning workers execute plans
/// concurrently, each on its own Executor invocation. Reset once per plan
/// (Execute), never by an operator: a join's scratch stays live while its
/// children run.
thread_local ExecArena t_arena;

bool IsAccessOp(PhysOp op) {
  return op == PhysOp::kTableScan || op == PhysOp::kColumnstoreScan ||
         op == PhysOp::kIndexScan || op == PhysOp::kIndexSeek;
}

bool IsJoinOp(PhysOp op) {
  return op == PhysOp::kHashJoin || op == PhysOp::kMergeJoin ||
         op == PhysOp::kNestedLoopJoin;
}

/// True iff `n` heads a single-table segment: KeyLookup / Filter nodes
/// down to a childless access leaf.
bool IsSegment(const PlanNode& n) {
  const PlanNode* m = &n;
  while (m->op == PhysOp::kKeyLookup || m->op == PhysOp::kFilter) {
    if (m->children.size() != 1) return false;
    m = m->child(0);
  }
  return IsAccessOp(m->op) && m->children.empty();
}

// Same semantics as the row engine's stat recording (executor.cc).
void Record(PlanNode* node, size_t out_rows) {
  node->stats.actual_rows += static_cast<double>(out_rows);
  node->stats.actual_executions += 1;
  node->stats.executed = true;
}

/// `runs` Records totalling `out_rows` rows in one step. Every addend is an
/// integer, so the sums are exact and equal the one-at-a-time ones.
void RecordRuns(PlanNode* node, size_t out_rows, size_t runs) {
  node->stats.actual_rows += static_cast<double>(out_rows);
  node->stats.actual_executions += static_cast<double>(runs);
  node->stats.executed = true;
}

ColumnView ViewOf(const Database& db, ColumnRef c) {
  return ColumnView::Of(
      db.table(c.table_id).column(static_cast<size_t>(c.column_id)));
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

/// Runs `preds` over n row ids in place; returns the survivors.
size_t FilterIdsInPlace(const std::vector<ResolvedPred>& preds, uint32_t* ids,
                        size_t n) {
  for (const ResolvedPred& p : preds) {
    n = FilterGather(p.view, ids, n, p.bounds, ids);
  }
  return n;
}

size_t SlotOrDie(const std::vector<int>& tables, int table_id) {
  const auto it = std::find(tables.begin(), tables.end(), table_id);
  AIMAI_CHECK_MSG(it != tables.end(), "column's table not in rowset");
  return static_cast<size_t>(it - tables.begin());
}

/// Streaming grouped aggregation over chunks of flat tuples. Groups are
/// registered in first-seen order and every accumulator advances
/// sequentially in global row order (carried across chunks), matching the
/// row engine's AggregateRows bit-for-bit: same group order, same FP
/// accumulation sequence per group, same finalization formulas. Each
/// column reads the row ids of its table's slot.
///
/// Group identity is the row engine's: keys compare as doubles, so -0.0
/// groups with +0.0 (under the first-seen key) and a key holding NaN
/// equals nothing, each such row opening its own group.
class GroupedAggregator {
 public:
  GroupedAggregator(const Database& db, const std::vector<int>& tables,
                    const std::vector<ColumnRef>& group_by,
                    const std::vector<AggItem>& aggs)
      : width_(tables.size()), ng_(group_by.size()), na_(aggs.size()) {
    group_cols_.reserve(ng_);
    for (const ColumnRef& c : group_by) {
      group_cols_.push_back({ViewOf(db, c), SlotOrDie(tables, c.table_id)});
    }
    funcs_.reserve(na_);
    agg_cols_.resize(na_);
    for (size_t a = 0; a < na_; ++a) {
      funcs_.push_back(aggs[a].func);
      if (aggs[a].func != AggFunc::kCount) {
        agg_cols_[a] = {ViewOf(db, aggs[a].col),
                        SlotOrDie(tables, aggs[a].col.table_id)};
      }
    }
    slot_ids_.resize(width_);
    if (width_ > 1) {
      slot_buf_.resize(width_ * kBatchRows);
      used_slots_.assign(width_, false);
      for (const SlotCol& c : group_cols_) used_slots_[c.slot] = true;
      for (size_t a = 0; a < na_; ++a) {
        if (funcs_[a] != AggFunc::kCount) used_slots_[agg_cols_[a].slot] = true;
      }
    }
    key_scratch_.resize(ng_);
    prev_key_.resize(ng_);
    if (ng_ > 0) {
      grp_.resize(kBatchRows);
      key_buf_.resize(ng_ * kBatchRows);
      slots_.assign(16, kNoGroup);
    }
  }

  /// Consumes n <= kBatchRows tuples of `width` row ids each.
  void Consume(const uint32_t* tuples, size_t n) {
    if (width_ == 1) {
      slot_ids_[0] = tuples;
    } else {
      for (size_t s = 0; s < width_; ++s) {
        if (!used_slots_[s]) continue;
        uint32_t* ids = slot_buf_.data() + s * kBatchRows;
        GatherSlot(tuples, width_, s, n, ids);
        slot_ids_[s] = ids;
      }
    }
    if (ng_ == 0) {
      ConsumeSingleGroup(n);
      return;
    }
    // Pass 1: resolve every row's group index into a chunk-local array
    // (registering new groups in first-seen order, like the row path).
    // Pass 2: one typed scatter-accumulate sweep per aggregate column.
    // Each (group, aggregate) slot still receives its updates for rows in
    // id order, so the FP sequence is exactly the per-row loop's.
    const SlotCol& key = group_cols_[0];
    if (ng_ == 1 && key.view.type == DataType::kString) {
      ResolveDirect(key.view.codes, slot_ids_[key.slot], n);
    } else if (ng_ == 1 && key.view.type == DataType::kInt64) {
      ResolveDirect(key.view.i64, slot_ids_[key.slot], n);
    } else {
      ResolveHashed(n);
    }
    for (size_t i = 0; i < n; ++i) counts_[grp_[i]] += 1;
    // Each aggregate sweeps only the accumulator Finalize reads for it.
    for (size_t a = 0; a < na_; ++a) {
      const AggFunc f = funcs_[a];
      if (f == AggFunc::kCount) continue;
      const bool sum = f == AggFunc::kSum || f == AggFunc::kAvg;
      AccumulateNumericGrouped(agg_cols_[a].view, slot_ids_[agg_cols_[a].slot],
                               grp_.data(), n, na_, a,
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
      const double* key = keys_.data() + g * ng_;
      out.group_keys.emplace_back(key, key + ng_);
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
  struct SlotCol {
    ColumnView view;
    size_t slot = 0;
  };

  /// Dictionary codes and small non-negative integers index `direct_`
  /// instead of the hash table. Such keys are exact as doubles and equal
  /// only when identical, so the table resolves exactly the groups the
  /// hash table would; keys outside [0, kDirectKeys) take the hash table.
  template <typename T>
  void ResolveDirect(const T* keys, const uint32_t* ids, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      const int64_t k = keys[ids[i]];
      if (k < 0 || k >= kDirectKeys) {
        key_scratch_[0] = static_cast<double>(k);
        grp_[i] = Lookup();
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

  /// Typed gathers of every key column, then one table lookup per row.
  void ResolveHashed(size_t n) {
    for (size_t j = 0; j < ng_; ++j) {
      GatherNumeric(group_cols_[j].view, slot_ids_[group_cols_[j].slot], n,
                    key_buf_.data() + j * kBatchRows);
    }
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < ng_; ++j) {
        key_scratch_[j] = key_buf_[j * kBatchRows + i];
      }
      grp_[i] = Lookup();
    }
  }

  bool KeyEquals(const double* a, const double* b) const {
    for (size_t j = 0; j < ng_; ++j) {
      if (!(a[j] == b[j])) return false;
    }
    return true;
  }

  /// The group of key_scratch_, registering a new one on a miss (always,
  /// for a key holding NaN: it equals no key).
  uint32_t Lookup() {
    const double* key = key_scratch_.data();
    if (has_prev_ && KeyEquals(key, prev_key_.data())) {
      return prev_idx_;  // Clustered/sorted input skips the hash probe.
    }
    const size_t mask = slots_.size() - 1;
    size_t s = Home(key);
    while (slots_[s] != kNoGroup &&
           !KeyEquals(keys_.data() + slots_[s] * ng_, key)) {
      s = (s + 1) & mask;
    }
    uint32_t g = slots_[s];
    if (g == kNoGroup) {
      g = Register();
      slots_[s] = g;
      if (2 * ++indexed_ > slots_.size()) Grow();
    }
    prev_idx_ = g;
    std::copy(key, key + ng_, prev_key_.begin());
    has_prev_ = true;
    return prev_idx_;
  }

  size_t Home(const double* key) const {
    uint64_t h = 1469598103934665603ULL;
    for (size_t j = 0; j < ng_; ++j) {
      const double d = key[j] == 0 ? 0.0 : key[j];  // -0.0 hashes as +0.0.
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      h ^= bits;
      h *= 1099511628211ULL;
    }
    h *= 0x9E3779B97F4A7C15ULL;
    return static_cast<size_t>(h >> 32) & (slots_.size() - 1);
  }

  /// Doubles the open-addressing table, re-homing its groups.
  void Grow() {
    const std::vector<uint32_t> old = std::move(slots_);
    slots_.assign(old.size() * 2, kNoGroup);
    const size_t mask = slots_.size() - 1;
    for (const uint32_t g : old) {
      if (g == kNoGroup) continue;
      size_t s = Home(keys_.data() + static_cast<size_t>(g) * ng_);
      while (slots_[s] != kNoGroup) s = (s + 1) & mask;
      slots_[s] = g;
    }
  }

  /// Registers key_scratch_ as the next group.
  uint32_t Register() {
    const uint32_t g = static_cast<uint32_t>(counts_.size());
    keys_.insert(keys_.end(), key_scratch_.begin(), key_scratch_.end());
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
  void ConsumeSingleGroup(size_t n) {
    if (n == 0) return;
    if (counts_.empty()) AppendGroupSlots();
    counts_[0] += static_cast<double>(n);
    for (size_t a = 0; a < na_; ++a) {
      if (funcs_[a] == AggFunc::kCount) continue;
      AccumulateNumeric(agg_cols_[a].view, slot_ids_[agg_cols_[a].slot], n,
                        &sums_[a], &mins_[a], &maxs_[a]);
    }
  }

  static constexpr int64_t kDirectKeys = int64_t{1} << 16;
  static constexpr uint32_t kNoGroup = std::numeric_limits<uint32_t>::max();

  const size_t width_;
  const size_t ng_;
  const size_t na_;
  std::vector<SlotCol> group_cols_;
  std::vector<SlotCol> agg_cols_;
  std::vector<AggFunc> funcs_;

  // Row ids per slot for the current chunk (the tuples themselves when
  // the input is one table wide).
  std::vector<const uint32_t*> slot_ids_;
  std::vector<uint32_t> slot_buf_;
  std::vector<bool> used_slots_;

  // Group state, SoA, in first-seen order. keys_ is group-major (ng_ per
  // group); sums_/mins_/maxs_ likewise with na_ per group.
  std::vector<double> counts_;
  std::vector<double> sums_;
  std::vector<double> mins_;
  std::vector<double> maxs_;
  std::vector<double> keys_;
  std::vector<uint32_t> slots_;  // Open addressing: group id or kNoGroup.
  size_t indexed_ = 0;
  std::vector<uint32_t> direct_;  // Group per direct key, or kNoGroup.

  std::vector<double> key_buf_;  // Column-major chunk keys: [j * kBatchRows + i].
  std::vector<double> key_scratch_;
  std::vector<uint32_t> grp_;  // Chunk-local group index per row.
  std::vector<double> prev_key_;
  uint32_t prev_idx_ = 0;
  bool has_prev_ = false;
};

// ------------------------------------------------------------ CanExecute

/// Output layout of a subtree: its tuples' tables, or an aggregate.
struct Shape {
  bool ok = true;
  bool is_agg = false;
  std::vector<int> tables;
};

bool Has(const std::vector<int>& tables, int table_id) {
  return std::find(tables.begin(), tables.end(), table_id) != tables.end();
}

bool PredsOn(const std::vector<Predicate>& preds, int table_id) {
  return std::all_of(preds.begin(), preds.end(), [table_id](const Predicate& p) {
    return p.table_id == table_id;
  });
}

/// `[Filter ->] [KeyLookup ->] IndexSeek` on an index led by `join`'s
/// column, or `[Filter ->] TableScan`, all over `join`'s table.
bool IsNljInner(const PlanNode& inner, ColumnRef join) {
  const PlanNode* n = &inner;
  while (n->op == PhysOp::kFilter || n->op == PhysOp::kKeyLookup) {
    if (n->children.size() != 1 || !PredsOn(n->residual_preds, join.table_id)) {
      return false;
    }
    n = n->child(0);
  }
  if (!n->children.empty() || n->table_id != join.table_id ||
      !PredsOn(n->residual_preds, join.table_id)) {
    return false;
  }
  if (n->op == PhysOp::kIndexSeek) {
    return !n->index.key_columns.empty() &&
           n->index.key_columns[0] == join.column_id;
  }
  return n->op == PhysOp::kTableScan;
}

Shape ShapeOf(const PlanNode& n) {
  const Shape fail{false, false, {}};
  const size_t arity = IsAccessOp(n.op) ? 0 : IsJoinOp(n.op) ? 2 : 1;
  if (n.children.size() != arity) return fail;
  if (IsAccessOp(n.op)) {
    const bool indexed =
        n.op == PhysOp::kIndexScan || n.op == PhysOp::kIndexSeek;
    if (n.table_id < 0 || !PredsOn(n.residual_preds, n.table_id) ||
        !PredsOn(n.seek_preds, n.table_id) ||
        (indexed && n.index.key_columns.empty())) {
      return fail;
    }
    return Shape{true, false, {n.table_id}};
  }
  Shape in = ShapeOf(*n.child(0));
  if (!in.ok) return fail;
  if (n.op == PhysOp::kNestedLoopJoin) {
    if (in.is_agg || !Has(in.tables, n.join.left.table_id) ||
        !IsNljInner(*n.child(1), n.join.right)) {
      return fail;
    }
    in.tables.push_back(n.join.right.table_id);
    return in;
  }
  if (IsJoinOp(n.op)) {
    Shape right = ShapeOf(*n.child(1));
    if (!right.ok || in.is_agg || right.is_agg ||
        !Has(in.tables, n.join.left.table_id) ||
        !Has(right.tables, n.join.right.table_id)) {
      return fail;
    }
    // Hash join streams its probe (right) side first.
    std::vector<int>& head = n.op == PhysOp::kHashJoin ? right.tables : in.tables;
    const std::vector<int>& tail =
        n.op == PhysOp::kHashJoin ? in.tables : right.tables;
    head.insert(head.end(), tail.begin(), tail.end());
    return Shape{true, false, head};
  }
  bool ok = true;
  switch (n.op) {
    case PhysOp::kKeyLookup:
      ok = !in.is_agg;
      break;
    case PhysOp::kFilter:
      ok = !in.is_agg && !n.residual_preds.empty() &&
           PredsOn(n.residual_preds, n.residual_preds[0].table_id) &&
           Has(in.tables, n.residual_preds[0].table_id);
      break;
    case PhysOp::kSort:
      for (const SortKey& k : n.sort_keys) {
        ok &= in.is_agg || Has(in.tables, k.col.table_id);
      }
      break;
    case PhysOp::kHashAggregate:
    case PhysOp::kStreamAggregate:
      ok = !in.is_agg;
      for (const ColumnRef& c : n.group_by) ok &= Has(in.tables, c.table_id);
      for (const AggItem& a : n.aggregates) {
        ok &= a.func == AggFunc::kCount || Has(in.tables, a.col.table_id);
      }
      in.is_agg = true;
      in.tables.clear();
      break;
    case PhysOp::kTop:
      break;
    default:
      ok = false;
  }
  return ok ? in : fail;
}

}  // namespace

bool VectorizedExecutor::CanExecute(const PlanNode& root) {
  return ShapeOf(root).ok;
}

ExecResult VectorizedExecutor::Execute(PlanNode* root) {
  AIMAI_SPAN("exec.vectorized");
  t_arena.Reset();
  return Run(root);
}

ExecResult VectorizedExecutor::Run(PlanNode* node) {
  if (IsSegment(*node)) return RunSegment(node, nullptr);
  switch (node->op) {
    case PhysOp::kFilter:
      return RunFilter(node);
    case PhysOp::kHashAggregate:
    case PhysOp::kStreamAggregate:
      if (IsSegment(*node->child(0))) return RunSegment(node->child(0), node);
      return RunAggregate(node);
    case PhysOp::kHashJoin:
      return RunHashJoin(node);
    case PhysOp::kMergeJoin: {
      // Merge joins are rare in enumerated plans (each sorts both inputs):
      // the row engine's merge runs over the batch-built inputs.
      const ExecResult left = Run(node->child(0));
      const ExecResult right = Run(node->child(1));
      AIMAI_CHECK(!left.is_agg && !right.is_agg);
      ExecResult result;
      result.rows = MergeJoinRows(*db_, left.rows, node->join.left,
                                  right.rows, node->join.right);
      Record(node, result.size());
      return result;
    }
    case PhysOp::kNestedLoopJoin:
      return RunNestedLoopJoin(node);
    default:
      break;
  }
  ExecResult result = Run(node->child(0));
  switch (node->op) {
    case PhysOp::kKeyLookup:
      // Lookup fetches columns; row composition is unchanged.
      AIMAI_CHECK(!result.is_agg);
      break;
    case PhysOp::kSort:
      if (result.is_agg) {
        SortAggResult(&result.agg);
      } else {
        SortRows(*db_, &result.rows, node->sort_keys);
      }
      break;
    case PhysOp::kTop: {
      const size_t n = static_cast<size_t>(node->top_n);
      if (result.is_agg) {
        if (result.agg.size() > n) {
          result.agg.group_keys.resize(n);
          result.agg.agg_values.resize(n);
        }
      } else {
        result.rows.Truncate(n);
      }
      break;
    }
    default:
      AIMAI_CHECK_MSG(false, "unsupported vectorized operator");
  }
  Record(node, result.size());
  return result;
}

ExecResult VectorizedExecutor::RunSegment(PlanNode* top, PlanNode* fused_agg) {
  // The leaf plus every KeyLookup / Filter above it, fused into one chunk
  // loop; steps are bottom-up.
  struct SegmentStep {
    PlanNode* node;
    std::vector<ResolvedPred> preds;  // Empty for KeyLookup.
    size_t out_rows = 0;
  };
  std::vector<SegmentStep> steps;
  PlanNode* leaf = top;
  while (!IsAccessOp(leaf->op)) {
    steps.push_back({leaf, {}, 0});
    leaf = leaf->child(0);
  }
  std::reverse(steps.begin(), steps.end());
  const Table& table = db_->table(leaf->table_id);
  for (SegmentStep& st : steps) {
    if (st.node->op != PhysOp::kFilter) continue;
    const std::vector<Predicate>& preds = st.node->residual_preds;
    AIMAI_CHECK(!preds.empty());
    AIMAI_CHECK_MSG(preds[0].table_id == leaf->table_id,
                    "column's table not in rowset");
    st.preds = ResolvePreds(*db_, table, preds);
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

  uint32_t* sel = t_arena.Alloc<uint32_t>(kBatchRows);

  std::unique_ptr<GroupedAggregator> agg;
  if (fused_agg != nullptr) {
    agg = std::make_unique<GroupedAggregator>(
        *db_, std::vector<int>{leaf->table_id}, fused_agg->group_by,
        fused_agg->aggregates);
  }
  // Unfused output: the survivors append straight into the result rows
  // (one slot per tuple: the leaf table's row id).
  ExecResult result;
  std::vector<uint32_t>& survivors = result.rows.ids;
  if (fused_agg == nullptr) {
    result.rows.tables = {leaf->table_id};
    survivors.reserve(std::min(
        total, static_cast<size_t>(std::max(0.0, top->stats.est_rows))));
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
  return result;
}

ExecResult VectorizedExecutor::RunFilter(PlanNode* node) {
  ExecResult result = Run(node->child(0));
  AIMAI_CHECK(!result.is_agg);
  AIMAI_CHECK(!node->residual_preds.empty());
  const int filter_table = node->residual_preds[0].table_id;
  RowSet& rows = result.rows;
  const size_t slot = SlotOrDie(rows.tables, filter_table);
  const std::vector<ResolvedPred> preds =
      ResolvePreds(*db_, db_->table(filter_table), node->residual_preds);
  const size_t w = rows.width();
  const size_t n = rows.size();
  uint32_t* ids = t_arena.Alloc<uint32_t>(kBatchRows);
  uint32_t* pos = t_arena.Alloc<uint32_t>(kBatchRows);
  // Order-preserving compaction in place: the write cursor never passes
  // the read cursor.
  size_t kept = 0;
  for (size_t base = 0; base < n; base += kBatchRows) {
    const size_t m = std::min(kBatchRows, n - base);
    const uint32_t* tuples = rows.tuple(base);
    const uint32_t* rid = tuples;
    if (w > 1) {
      GatherSlot(tuples, w, slot, m, ids);
      rid = ids;
    }
    Iota(pos, 0, m);
    size_t cnt = m;
    for (const ResolvedPred& p : preds) {
      cnt = FilterPositions(p.view, rid, pos, cnt, p.bounds, pos);
    }
    for (size_t k = 0; k < cnt; ++k, ++kept) {
      std::memmove(rows.ids.data() + kept * w, tuples + pos[k] * w,
                   w * sizeof(uint32_t));
    }
  }
  rows.Truncate(kept);
  Record(node, kept);
  return result;
}

ExecResult VectorizedExecutor::RunAggregate(PlanNode* node) {
  ExecResult input = Run(node->child(0));
  AIMAI_CHECK(!input.is_agg);
  const RowSet& rows = input.rows;
  GroupedAggregator ga(*db_, rows.tables, node->group_by, node->aggregates);
  for (size_t base = 0; base < rows.size(); base += kBatchRows) {
    ga.Consume(rows.tuple(base), std::min(kBatchRows, rows.size() - base));
  }
  ExecResult result;
  result.is_agg = true;
  result.agg = ga.Finalize();
  Record(node, result.agg.size());
  return result;
}

ExecResult VectorizedExecutor::RunHashJoin(PlanNode* node) {
  const ExecResult build = Run(node->child(0));
  const ExecResult probe = Run(node->child(1));
  AIMAI_CHECK(!build.is_agg && !probe.is_agg);
  const RowSet& b = build.rows;
  const RowSet& p = probe.rows;
  ExecResult result;
  RowSet& out = result.rows;
  out.tables = p.tables;
  out.tables.insert(out.tables.end(), b.tables.begin(), b.tables.end());
  if (b.size() > 0 && p.size() > 0) {
    const SlotColumn bkey(*db_, b, node->join.left);
    const SlotColumn pkey(*db_, p, node->join.right);
    const size_t bw = b.width();
    const size_t pw = p.width();
    double* keys = t_arena.Alloc<double>(kBatchRows);
    uint32_t* cand = t_arena.Alloc<uint32_t>(kBatchRows);
    uint32_t* pi = t_arena.Alloc<uint32_t>(kBatchRows);
    uint32_t* bi = t_arena.Alloc<uint32_t>(kBatchRows);

    // Build in input order (NaN never enters), so each chain lists its
    // key's tuples newest first.
    JoinDirectory dir(b.size());
    for (size_t base = 0; base < b.size(); base += kBatchRows) {
      const size_t m = std::min(kBatchRows, b.size() - base);
      GatherSlotNumeric(bkey.view, b.tuple(base), bw, bkey.slot, m, keys);
      for (size_t i = 0; i < m; ++i) {
        if (!std::isnan(keys[i])) {
          dir.Insert(keys[i], static_cast<uint32_t>(base + i));
        }
      }
    }
    // Probe-major match pairs, materialized a chunk at a time.
    size_t k = 0;
    for (size_t base = 0; base < p.size(); base += kBatchRows) {
      const size_t m = std::min(kBatchRows, p.size() - base);
      GatherSlotNumeric(pkey.view, p.tuple(base), pw, pkey.slot, m, keys);
      const size_t n_cand = dir.MayContain(keys, m, cand);
      for (size_t c = 0; c < n_cand; ++c) {
        const size_t i = cand[c];
        for (uint32_t t = dir.Find(keys[i]); t != JoinDirectory::kNone;
             t = dir.Next(t)) {
          pi[k] = static_cast<uint32_t>(base + i);
          bi[k] = t;
          if (++k == kBatchRows) {
            AppendPairs(p.ids.data(), pw, pi, b.ids.data(), bw, bi, k,
                        &out.ids);
            k = 0;
          }
        }
      }
    }
    AppendPairs(p.ids.data(), pw, pi, b.ids.data(), bw, bi, k, &out.ids);
  }
  Record(node, out.size());
  return result;
}

ExecResult VectorizedExecutor::RunNestedLoopJoin(PlanNode* node) {
  ExecResult outer = Run(node->child(0));
  AIMAI_CHECK(!outer.is_agg);
  const RowSet& o = outer.rows;

  // The inner side: [Filter ->] [KeyLookup ->] leaf, steps bottom-up.
  struct Step {
    PlanNode* node;
    std::vector<ResolvedPred> preds;  // Empty for KeyLookup.
    size_t total_rows = 0;
  };
  std::vector<Step> steps;
  PlanNode* leaf = node->child(1);
  while (leaf->op == PhysOp::kFilter || leaf->op == PhysOp::kKeyLookup) {
    steps.push_back({leaf, {}, 0});
    leaf = leaf->child(0);
  }
  std::reverse(steps.begin(), steps.end());

  ExecResult result;
  RowSet& out = result.rows;
  out.tables = o.tables;
  out.tables.push_back(leaf->table_id);
  const size_t n_outer = o.size();
  if (n_outer == 0) {  // The inner never runs, so its index is never built.
    Record(node, 0);
    return result;
  }

  const int join_col = node->join.right.column_id;
  const BTreeIndex* index = nullptr;
  switch (leaf->op) {
    case PhysOp::kIndexSeek:
      AIMAI_CHECK_MSG(!leaf->index.key_columns.empty() &&
                          leaf->index.key_columns[0] == join_col,
                      "inner seek index must lead with the join column");
      index = indexes_->GetOrBuild(leaf->index);
      break;
    case PhysOp::kTableScan:
      break;
    default:
      AIMAI_CHECK_MSG(false, "unsupported nested-loop inner operator");
  }
  const Table& table = db_->table(leaf->table_id);
  const std::vector<ResolvedPred> leaf_preds =
      ResolvePreds(*db_, table, leaf->residual_preds);
  for (Step& st : steps) {
    if (st.node->op == PhysOp::kFilter) {
      st.preds = ResolvePreds(*db_, table, st.node->residual_preds);
    }
  }

  // A scanned inner is the same for every rebind up to the key compare:
  // its residual survivors, in row order, chained by key (inserted last to
  // first, so each chain walks in row order). NaN rows never enter, and a
  // NaN outer key finds no chain.
  std::vector<uint32_t> scan_rows;
  std::unique_ptr<JoinDirectory> scan_dir;
  if (index == nullptr) {
    const size_t table_rows = table.num_rows();
    scan_rows.resize(table_rows);
    size_t kept = 0;
    for (size_t base = 0; base < table_rows; base += kBatchRows) {
      const size_t m = std::min(kBatchRows, table_rows - base);
      uint32_t* dst = scan_rows.data() + kept;
      Iota(dst, static_cast<uint32_t>(base), m);
      kept += FilterIdsInPlace(leaf_preds, dst, m);
    }
    scan_rows.resize(kept);
    const ColumnView key =
        ColumnView::Of(table.column(static_cast<size_t>(join_col)));
    scan_dir = std::make_unique<JoinDirectory>(kept);
    for (size_t c = kept; c-- > 0;) {
      const double v = key.NumericAt(scan_rows[c]);
      if (!std::isnan(v)) scan_dir->Insert(v, static_cast<uint32_t>(c));
    }
  }
  // Rebinds run a chunk at a time: each outer tuple's inner candidates
  // (seek hits, or the scanned rows on its key's chain) append to one
  // buffer with the outer tuple they belong to, then the inner filters
  // compact the whole buffer in one pass each and the survivors emit as
  // match pairs. Order is outer order, inner in index / row order.
  std::vector<uint32_t> hit_rows;   // Inner row id per candidate.
  std::vector<uint32_t> hit_outer;  // Its outer tuple.
  std::vector<uint32_t> pos;        // Surviving candidate positions.
  hit_rows.reserve(kBatchRows);
  hit_outer.reserve(kBatchRows);
  const size_t ow = o.width();
  size_t total_access = 0;
  size_t leaf_rows = 0;
  auto flush = [&] {
    const size_t n = hit_rows.size();
    pos.resize(n);
    Iota(pos.data(), 0, n);
    size_t cnt = n;
    if (index != nullptr) {  // A scanned inner's rows already passed these.
      for (const ResolvedPred& p : leaf_preds) {
        cnt = FilterPositions(p.view, hit_rows.data(), pos.data(), cnt,
                              p.bounds, pos.data());
      }
    }
    leaf_rows += cnt;
    for (Step& st : steps) {
      for (const ResolvedPred& p : st.preds) {
        cnt = FilterPositions(p.view, hit_rows.data(), pos.data(), cnt,
                              p.bounds, pos.data());
      }
      st.total_rows += cnt;
    }
    // Outer tuple per survivor, written over the front of hit_outer (the
    // write index never passes the read index).
    for (size_t k = 0; k < cnt; ++k) hit_outer[k] = hit_outer[pos[k]];
    AppendPairs(o.ids.data(), ow, hit_outer.data(), hit_rows.data(), 1,
                pos.data(), cnt, &out.ids);
    hit_rows.clear();
    hit_outer.clear();
  };

  const SlotColumn okey(*db_, o, node->join.left);
  double* keys = t_arena.Alloc<double>(kBatchRows);
  // The latest seek, reused while the outer key repeats; an ascending key
  // keeps the seek cursor. NaN equals no key, so it never reuses a span.
  std::span<const uint32_t> hits;
  size_t cursor = 0;
  double prev_key = std::numeric_limits<double>::quiet_NaN();
  for (size_t base = 0; base < n_outer; base += kBatchRows) {
    const size_t m = std::min(kBatchRows, n_outer - base);
    GatherSlotNumeric(okey.view, o.tuple(base), ow, okey.slot, m, keys);
    for (size_t i = 0; i < m; ++i) {
      const double v = keys[i];
      const uint32_t outer_t = static_cast<uint32_t>(base + i);
      if (index != nullptr) {
        if (!(v == prev_key)) {
          if (!(v > prev_key)) cursor = 0;
          hits = index->SeekEqual(v, &cursor);
          prev_key = v;
        }
        total_access += hits.size();
        hit_rows.insert(hit_rows.end(), hits.begin(), hits.end());
        hit_outer.resize(hit_rows.size(), outer_t);
      } else {
        for (uint32_t c = scan_dir->Find(v); c != JoinDirectory::kNone;
             c = scan_dir->Next(c)) {
          hit_rows.push_back(scan_rows[c]);
          hit_outer.push_back(outer_t);
        }
      }
      if (hit_rows.size() >= kBatchRows) flush();
    }
  }
  flush();

  // Per-rebind statistics, added in bulk (integer sums, hence exact).
  leaf->stats.actual_access_rows +=
      index != nullptr ? static_cast<double>(total_access)
                       : static_cast<double>(table.num_rows()) *
                             static_cast<double>(n_outer);
  RecordRuns(leaf, leaf_rows, n_outer);
  for (Step& st : steps) RecordRuns(st.node, st.total_rows, n_outer);
  Record(node, out.size());
  return result;
}

}  // namespace aimai
