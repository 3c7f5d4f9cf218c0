#include "optimizer/plan_enumerator.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "common/string_util.h"

namespace aimai {

namespace {

/// Serial plans with an estimated cost above this threshold are also
/// costed parallel at kDop workers.
constexpr double kParallelCostThreshold = 50.0;
constexpr int kDop = 4;
/// The join search is a DP over connected subsets of at most this many
/// tables; CheckJoinGraph refuses larger queries.
constexpr int kMaxDpTables = 10;
/// A nested-loop inner without an index is considered only if the inner
/// table is at most this many rows (guards executor runtime).
constexpr double kNljScanInnerMaxRows = 2000.0;

/// Position of `table_id` in `q.tables` (its bit in a subset mask), or -1.
int TablePos(const QuerySpec& q, int table_id) {
  for (size_t i = 0; i < q.tables.size(); ++i) {
    if (q.tables[i] == table_id) return static_cast<int>(i);
  }
  return -1;
}

/// Columns of `table_id` referenced by the query, as ColumnRefs.
std::vector<ColumnRef> RefColumns(const QuerySpec& q, int table_id) {
  std::vector<ColumnRef> out;
  for (int c : q.ReferencedColumns(table_id)) {
    out.push_back(ColumnRef{table_id, c});
  }
  return out;
}

/// Whether `idx` covers every column in `cols`.
bool CoversAll(const IndexDef& idx, const std::vector<int>& cols) {
  for (int c : cols) {
    if (!idx.Covers(c)) return false;
  }
  return true;
}

/// Splits `preds` by whether their column is covered by `idx`.
void SplitByCoverage(const std::vector<Predicate>& preds, const IndexDef& idx,
                     std::vector<Predicate>* covered,
                     std::vector<Predicate>* uncovered) {
  for (const Predicate& p : preds) {
    if (idx.Covers(p.column_id)) {
      covered->push_back(p);
    } else {
      uncovered->push_back(p);
    }
  }
}

/// Batch-mode decision at node construction time.
ExecMode JoinMode(PhysOp op, const PlanNode& l, const PlanNode& r) {
  if (op == PhysOp::kHashJoin &&
      (l.mode == ExecMode::kBatch || r.mode == ExecMode::kBatch)) {
    return ExecMode::kBatch;
  }
  return ExecMode::kRow;
}

struct SeekAnalysis {
  bool usable = false;
  std::vector<Predicate> seek_preds;
};

/// Sargability: an equality prefix of the index key, optionally followed
/// by one range column.
SeekAnalysis AnalyzeSeek(const Database& db,
                         const std::vector<Predicate>& preds,
                         const IndexDef& idx) {
  SeekAnalysis out;
  const auto bounds = ResolveConjunction(db, preds);
  auto bounds_of = [&bounds](int col) -> const NumericBounds* {
    for (const auto& [c, b] : bounds) {
      if (c == col) return &b;
    }
    return nullptr;
  };
  std::set<int> consumed;
  for (int key_col : idx.key_columns) {
    const NumericBounds* b = bounds_of(key_col);
    if (b == nullptr) break;
    const bool is_eq = b->has_lo && b->has_hi && !b->lo_open && !b->hi_open &&
                       b->lo == b->hi;
    consumed.insert(key_col);
    if (!is_eq) break;  // Range column terminates the seek prefix.
  }
  if (consumed.empty()) return out;
  out.usable = true;
  for (const Predicate& p : preds) {
    if (consumed.count(p.column_id) > 0) out.seek_preds.push_back(p);
  }
  return out;
}

/// A plain scan of `table_id`: heap (`index` unused), columnstore (batch
/// mode) or covering index.
std::unique_ptr<PlanNode> MakeScan(PhysOp op, int table_id,
                                   const IndexDef& index,
                                   const std::vector<Predicate>& preds,
                                   const std::vector<ColumnRef>& cols,
                                   double rows, double access_rows) {
  auto scan = std::make_unique<PlanNode>();
  scan->op = op;
  if (op == PhysOp::kColumnstoreScan) scan->mode = ExecMode::kBatch;
  scan->table_id = table_id;
  scan->index = index;
  scan->residual_preds = preds;
  scan->output_columns = cols;
  scan->stats.est_rows = rows;
  scan->stats.est_access_rows = access_rows;
  return scan;
}

/// Estimates of one seek chain, totals across `executions` rebinds.
struct SeekEstimates {
  double access_rows = 0;  // Seek-qualified rows.
  double rows = 0;         // Seek (and key lookup) output.
  double filter_rows = 0;  // Residual filter output.
  double executions = 1;
};

/// Index seek [+ key lookup [+ filter]]. A non-covering `idx` needs the
/// key lookup for the other referenced columns, then a filter for the
/// `uncovered` predicates if there are any.
std::unique_ptr<PlanNode> MakeSeekChain(int table_id, const IndexDef& idx,
                                        bool covers,
                                        std::vector<Predicate> seek_preds,
                                        std::vector<Predicate> residual,
                                        std::vector<Predicate> uncovered,
                                        const std::vector<ColumnRef>& cols,
                                        const SeekEstimates& est) {
  auto seek = std::make_unique<PlanNode>();
  seek->op = PhysOp::kIndexSeek;
  seek->table_id = table_id;
  seek->index = idx;
  seek->seek_preds = std::move(seek_preds);
  seek->residual_preds = std::move(residual);
  seek->stats.est_executions = est.executions;
  seek->stats.est_access_rows = est.access_rows;
  seek->stats.est_rows = est.rows;
  // The seek outputs the covered subset of the referenced columns.
  for (const ColumnRef& c : cols) {
    if (idx.Covers(c.column_id)) seek->output_columns.push_back(c);
  }
  if (covers) return seek;

  auto lookup = std::make_unique<PlanNode>();
  lookup->op = PhysOp::kKeyLookup;
  lookup->table_id = table_id;
  lookup->output_columns = cols;
  lookup->stats.est_executions = est.executions;
  lookup->stats.est_rows = est.rows;
  lookup->children.push_back(std::move(seek));
  if (uncovered.empty()) return lookup;

  auto filter = std::make_unique<PlanNode>();
  filter->op = PhysOp::kFilter;
  filter->residual_preds = std::move(uncovered);
  filter->output_columns = cols;
  filter->stats.est_executions = est.executions;
  filter->stats.est_rows = est.filter_rows;
  filter->children.push_back(std::move(lookup));
  return filter;
}

/// Sort of `input`, whose estimated output is `rows`, on `keys`.
std::unique_ptr<PlanNode> MakeSort(std::unique_ptr<PlanNode> input,
                                   std::vector<SortKey> keys, double rows) {
  auto sort = std::make_unique<PlanNode>();
  sort->op = PhysOp::kSort;
  sort->sort_keys = std::move(keys);
  sort->output_columns = input->output_columns;
  sort->output_width_bytes = input->output_width_bytes;
  sort->stats.est_rows = rows;
  sort->children.push_back(std::move(input));
  return sort;
}

}  // namespace

PlanEnumerator::PlanEnumerator(const Database* db, StatisticsCatalog* stats)
    : db_(db), stats_(stats), card_(stats), cost_model_(db) {}

Status PlanEnumerator::CheckJoinGraph(const QuerySpec& q) {
  const size_t n = q.tables.size();
  if (n > static_cast<size_t>(kMaxDpTables)) {
    return Status::InvalidArgument(
        StrFormat("query '%s' joins %zu tables; at most %d are supported",
                  q.name.c_str(), n, kMaxDpTables));
  }
  for (size_t i = 0; i < n; ++i) {
    if (TablePos(q, q.tables[i]) != static_cast<int>(i)) {
      return Status::InvalidArgument(
          StrFormat("query '%s' lists table %d twice", q.name.c_str(),
                    q.tables[i]));
    }
  }
  for (const JoinCond& j : q.joins) {
    if (TablePos(q, j.left.table_id) < 0 ||
        TablePos(q, j.right.table_id) < 0) {
      return Status::InvalidArgument(
          StrFormat("query '%s' joins a table it does not list",
                    q.name.c_str()));
    }
  }
  // Grow the set reachable from the first table until a pass adds none.
  uint64_t reached = n == 0 ? 0 : 1;
  for (bool grew = true; grew;) {
    grew = false;
    for (const JoinCond& j : q.joins) {
      const uint64_t ml = 1ULL << TablePos(q, j.left.table_id);
      const uint64_t mr = 1ULL << TablePos(q, j.right.table_id);
      if (((reached & ml) != 0) != ((reached & mr) != 0)) {
        reached |= ml | mr;
        grew = true;
      }
    }
  }
  if (reached != (1ULL << n) - 1) {
    return Status::InvalidArgument(
        StrFormat("query '%s' has a disconnected join graph",
                  q.name.c_str()));
  }
  return Status::Ok();
}

std::unique_ptr<PlanNode> PlanEnumerator::Cheapest(
    std::vector<std::unique_ptr<PlanNode>> candidates) {
  std::unique_ptr<PlanNode> best;
  double best_cost = 0;
  for (auto& cand : candidates) {
    const double cost = Annotate(cand.get());
    if (best == nullptr || cost < best_cost) {
      best_cost = cost;
      best = std::move(cand);
    }
  }
  return best;
}

PlanEnumerator::AccessPath PlanEnumerator::BestAccessPath(
    const QuerySpec& q, int table_id, const Configuration& config) {
  const std::vector<Predicate> preds = q.PredicatesOn(table_id);
  const std::vector<int> refcols = q.ReferencedColumns(table_id);
  const std::vector<ColumnRef> ref_refs = RefColumns(q, table_id);
  const double table_rows = stats_->TableRows(table_id);
  const double est_out = card_.EstimateFilteredRows(table_id, preds);

  std::vector<std::unique_ptr<PlanNode>> candidates;
  candidates.push_back(MakeScan(PhysOp::kTableScan, table_id, IndexDef(),
                                preds, ref_refs, est_out, table_rows));

  for (const IndexDef& idx : config.IndexesOn(table_id)) {
    if (idx.is_columnstore) {
      candidates.push_back(MakeScan(PhysOp::kColumnstoreScan, table_id, idx,
                                    preds, ref_refs, est_out, table_rows));
      continue;
    }

    const SeekAnalysis seek = AnalyzeSeek(*db_, preds, idx);
    const bool covers = CoversAll(idx, refcols);

    if (!seek.usable) {
      // Covering index scan: narrower rows than the heap.
      if (covers) {
        candidates.push_back(MakeScan(PhysOp::kIndexScan, table_id, idx,
                                      preds, ref_refs, est_out, table_rows));
      }
      continue;
    }

    std::vector<Predicate> covered;
    std::vector<Predicate> uncovered;
    SplitByCoverage(preds, idx, &covered, &uncovered);
    // Residual at the seek: covered predicates not already in the seek.
    std::vector<Predicate> seek_residual;
    for (const Predicate& p : covered) {
      bool in_seek = false;
      for (const Predicate& sp : seek.seek_preds) {
        if (sp.column_id == p.column_id && sp.op == p.op) {
          in_seek = true;
          break;
        }
      }
      if (!in_seek) seek_residual.push_back(p);
    }

    const double seek_sel =
        card_.ConjunctionSelectivity(table_id, seek.seek_preds);
    const double covered_sel = card_.ConjunctionSelectivity(table_id, covered);
    SeekEstimates est;
    est.access_rows = table_rows * seek_sel;
    est.rows = table_rows * covered_sel;
    est.filter_rows = est_out;
    candidates.push_back(MakeSeekChain(table_id, idx, covers, seek.seek_preds,
                                       std::move(seek_residual),
                                       std::move(uncovered), ref_refs, est));
  }

  AccessPath best;
  best.rows = est_out;
  best.plan = Cheapest(std::move(candidates));
  return best;
}

std::unique_ptr<PlanNode> PlanEnumerator::BuildNljInner(
    const QuerySpec& q, int table_id, int join_col,
    const Configuration& config, double outer_rows) {
  const std::vector<Predicate> preds = q.PredicatesOn(table_id);
  const std::vector<int> refcols = q.ReferencedColumns(table_id);
  const std::vector<ColumnRef> ref_refs = RefColumns(q, table_id);
  const double table_rows = stats_->TableRows(table_id);
  const double ndv =
      std::max(1.0, stats_->DistinctCount(table_id, join_col));
  const double execs = std::max(1.0, outer_rows);

  std::vector<std::unique_ptr<PlanNode>> candidates;

  // Seek on an index led by the join column, once per outer row.
  for (const IndexDef& idx : config.IndexesOn(table_id)) {
    if (idx.is_columnstore || idx.key_columns.empty()) continue;
    if (idx.key_columns[0] != join_col) continue;
    std::vector<Predicate> covered;
    std::vector<Predicate> uncovered;
    SplitByCoverage(preds, idx, &covered, &uncovered);
    const double covered_sel = card_.ConjunctionSelectivity(table_id, covered);
    const double uncovered_sel =
        card_.ConjunctionSelectivity(table_id, uncovered);
    SeekEstimates est;
    est.executions = execs;
    est.access_rows = execs * table_rows / ndv;
    est.rows = est.access_rows * covered_sel;
    est.filter_rows = est.rows * uncovered_sel;
    candidates.push_back(MakeSeekChain(
        table_id, idx, CoversAll(idx, refcols), {}, std::move(covered),
        std::move(uncovered), ref_refs, est));
  }

  // Last resort: per-row scan of a tiny inner table.
  if (table_rows <= kNljScanInnerMaxRows) {
    auto scan = MakeScan(
        PhysOp::kTableScan, table_id, IndexDef(), preds, ref_refs,
        execs * card_.EstimateFilteredRows(table_id, preds) / ndv,
        execs * table_rows);
    scan->stats.est_executions = execs;
    candidates.push_back(std::move(scan));
  }
  return Cheapest(std::move(candidates));
}

std::unique_ptr<PlanNode> PlanEnumerator::MakeJoin(
    PhysOp op, std::unique_ptr<PlanNode> left,
    std::unique_ptr<PlanNode> right, ColumnRef left_col, ColumnRef right_col,
    double out_rows) {
  auto node = std::make_unique<PlanNode>();
  node->op = op;
  node->join.left = left_col;
  node->join.right = right_col;
  node->stats.est_rows = out_rows;
  if (op == PhysOp::kMergeJoin) {
    // Sort both inputs on the join columns.
    const double left_rows = left->stats.est_rows;
    const double right_rows = right->stats.est_rows;
    left = MakeSort(std::move(left), {SortKey{left_col, true}}, left_rows);
    right = MakeSort(std::move(right), {SortKey{right_col, true}}, right_rows);
  }
  node->mode = JoinMode(op, *left, *right);
  node->output_columns = left->output_columns;
  node->output_columns.insert(node->output_columns.end(),
                              right->output_columns.begin(),
                              right->output_columns.end());
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  Annotate(node.get());
  return node;
}

std::unique_ptr<PlanNode> PlanEnumerator::EnumerateJoins(
    const QuerySpec& q, const Configuration& config,
    std::vector<AccessPath> base_paths, double* out_rows) {
  const size_t n = q.tables.size();
  AIMAI_CHECK(base_paths.size() == n);
  AIMAI_CHECK(n <= static_cast<size_t>(kMaxDpTables));

  struct Rel {
    std::unique_ptr<PlanNode> plan;
    double rows = 0;
    double cost = 0;
  };

  // All join implementations for combining `a` and `b` via `cond`
  // (cond.left on a's side); the cheapest wins, ties to the first.
  auto best_join = [&](const Rel& a, const Rel& b, ColumnRef a_col,
                       ColumnRef b_col, uint64_t b_mask) -> Rel {
    Rel best;
    const double join_rows = card_.EstimateJoinRows(a.rows, b.rows,
                                                    JoinCond{a_col, b_col});
    auto consider = [&best, join_rows](std::unique_ptr<PlanNode> cand) {
      const double cost = cand->stats.est_subtree_cost;
      if (best.plan == nullptr || cost < best.cost) {
        best.plan = std::move(cand);
        best.rows = join_rows;
        best.cost = cost;
      }
    };
    // Hash join, both build orientations.
    consider(MakeJoin(PhysOp::kHashJoin, a.plan->Clone(), b.plan->Clone(),
                      a_col, b_col, join_rows));
    consider(MakeJoin(PhysOp::kHashJoin, b.plan->Clone(), a.plan->Clone(),
                      b_col, a_col, join_rows));
    // Merge join.
    consider(MakeJoin(PhysOp::kMergeJoin, a.plan->Clone(), b.plan->Clone(),
                      a_col, b_col, join_rows));
    // Nested loops with b as a single-table parameterized inner.
    if (__builtin_popcountll(b_mask) == 1) {
      std::unique_ptr<PlanNode> inner = BuildNljInner(
          q, b_col.table_id, b_col.column_id, config, a.rows);
      if (inner != nullptr) {
        consider(MakeJoin(PhysOp::kNestedLoopJoin, a.plan->Clone(),
                          std::move(inner), a_col, b_col, join_rows));
      }
    }
    return best;
  };

  // Finds a join condition between two table sets; returns false if none.
  auto connecting_cond = [&](uint64_t mask_a, uint64_t mask_b, ColumnRef* a_col,
                             ColumnRef* b_col) -> bool {
    for (const JoinCond& j : q.joins) {
      const int pl = TablePos(q, j.left.table_id);
      const int pr = TablePos(q, j.right.table_id);
      if (pl < 0 || pr < 0) continue;
      const uint64_t ml = 1ULL << pl;
      const uint64_t mr = 1ULL << pr;
      if ((mask_a & ml) && (mask_b & mr)) {
        *a_col = j.left;
        *b_col = j.right;
        return true;
      }
      if ((mask_a & mr) && (mask_b & ml)) {
        *a_col = j.right;
        *b_col = j.left;
        return true;
      }
    }
    return false;
  };

  // Dynamic programming over connected subsets: dp[mask] is the cheapest
  // plan joining the tables in `mask`, or empty when they are not
  // connected.
  const uint64_t full = (1ULL << n) - 1;
  std::vector<Rel> dp(full + 1);
  for (size_t i = 0; i < n; ++i) {
    Rel& r = dp[1ULL << i];
    r.rows = base_paths[i].rows;
    r.plan = std::move(base_paths[i].plan);
    r.cost = r.plan->stats.est_subtree_cost;
  }
  for (uint64_t s = 3; s <= full; ++s) {
    if (__builtin_popcountll(s) < 2) continue;
    Rel& best = dp[s];
    for (uint64_t a = (s - 1) & s; a != 0; a = (a - 1) & s) {
      const uint64_t b = s & ~a;
      if (dp[a].plan == nullptr || dp[b].plan == nullptr) continue;
      ColumnRef a_col, b_col;
      if (!connecting_cond(a, b, &a_col, &b_col)) continue;
      Rel cand = best_join(dp[a], dp[b], a_col, b_col, b);
      if (best.plan == nullptr || cand.cost < best.cost) {
        best = std::move(cand);
      }
    }
  }
  AIMAI_CHECK_MSG(dp[full].plan != nullptr, "join graph must be connected");
  *out_rows = dp[full].rows;
  return std::move(dp[full].plan);
}

std::unique_ptr<PlanNode> PlanEnumerator::FinishPlan(
    const QuerySpec& q, std::unique_ptr<PlanNode> input, double input_rows) {
  std::unique_ptr<PlanNode> top = std::move(input);
  double rows = input_rows;

  if (q.HasAggregation()) {
    const double groups = card_.EstimateGroups(rows, q.group_by);
    double width = 8.0 * static_cast<double>(q.aggregates.size());
    width += RowWidthBytes(*db_, q.group_by);

    if (q.group_by.empty()) {
      // Scalar aggregate: stream aggregate without sorting.
      auto agg = std::make_unique<PlanNode>();
      agg->op = PhysOp::kStreamAggregate;
      agg->group_by = q.group_by;
      agg->aggregates = q.aggregates;
      agg->output_width_bytes = width;
      agg->stats.est_rows = 1;
      agg->children.push_back(std::move(top));
      top = std::move(agg);
      rows = 1;
    } else {
      // Hash aggregate vs sort + stream aggregate: cost both.
      auto hash_agg = std::make_unique<PlanNode>();
      hash_agg->op = PhysOp::kHashAggregate;
      hash_agg->mode = top->mode == ExecMode::kBatch ? ExecMode::kBatch
                                                     : ExecMode::kRow;
      hash_agg->group_by = q.group_by;
      hash_agg->aggregates = q.aggregates;
      hash_agg->output_width_bytes = width;
      hash_agg->stats.est_rows = groups;
      hash_agg->children.push_back(top->Clone());
      Annotate(hash_agg.get());

      std::vector<SortKey> keys;
      for (const ColumnRef& c : q.group_by) keys.push_back(SortKey{c, true});
      auto sort = MakeSort(std::move(top), std::move(keys), rows);
      auto stream_agg = std::make_unique<PlanNode>();
      stream_agg->op = PhysOp::kStreamAggregate;
      stream_agg->group_by = q.group_by;
      stream_agg->aggregates = q.aggregates;
      stream_agg->output_width_bytes = width;
      stream_agg->stats.est_rows = groups;
      stream_agg->children.push_back(std::move(sort));
      Annotate(stream_agg.get());

      if (hash_agg->stats.est_subtree_cost <=
          stream_agg->stats.est_subtree_cost) {
        top = std::move(hash_agg);
      } else {
        top = std::move(stream_agg);
      }
      rows = groups;
    }
  }

  if (!q.order_by.empty()) top = MakeSort(std::move(top), q.order_by, rows);

  if (q.top_n > 0) {
    auto topn = std::make_unique<PlanNode>();
    topn->op = PhysOp::kTop;
    topn->top_n = q.top_n;
    topn->output_columns = top->output_columns;
    topn->output_width_bytes = top->output_width_bytes;
    topn->stats.est_rows = std::min(rows, static_cast<double>(q.top_n));
    topn->children.push_back(std::move(top));
    top = std::move(topn);
  }
  return top;
}

std::unique_ptr<PhysicalPlan> PlanEnumerator::Optimize(
    const QuerySpec& q, const Configuration& config) {
  AIMAI_CHECK(!q.tables.empty());
  std::vector<AccessPath> paths;
  paths.reserve(q.tables.size());
  for (int t : q.tables) {
    paths.push_back(BestAccessPath(q, t, config));
  }
  double join_rows = 0;
  std::unique_ptr<PlanNode> tree =
      EnumerateJoins(q, config, std::move(paths), &join_rows);
  tree = FinishPlan(q, std::move(tree), join_rows);

  auto plan = std::make_unique<PhysicalPlan>();
  plan->root = std::move(tree);
  plan->degree_of_parallelism = 1;
  cost_model_.Annotate(plan.get());

  // Parallelism decision: big serial plans go parallel if the (believed)
  // speedup beats the startup cost.
  if (plan->est_total_cost > kParallelCostThreshold) {
    auto par = plan->Clone();
    par->degree_of_parallelism = kDop;
    par->root->VisitMutable([](PlanNode* n) { n->parallel = true; });
    cost_model_.Annotate(par.get());
    if (par->est_total_cost < plan->est_total_cost) plan = std::move(par);
  }
  return plan;
}

}  // namespace aimai
