#include "exec/plan.h"

#include <cstring>

#include "common/string_util.h"

namespace aimai {

const char* PhysOpName(PhysOp op) {
  switch (op) {
    case PhysOp::kTableScan:
      return "TableScan";
    case PhysOp::kIndexScan:
      return "IndexScan";
    case PhysOp::kIndexSeek:
      return "IndexSeek";
    case PhysOp::kKeyLookup:
      return "KeyLookup";
    case PhysOp::kColumnstoreScan:
      return "ColumnstoreScan";
    case PhysOp::kFilter:
      return "Filter";
    case PhysOp::kNestedLoopJoin:
      return "NestedLoopJoin";
    case PhysOp::kHashJoin:
      return "HashJoin";
    case PhysOp::kMergeJoin:
      return "MergeJoin";
    case PhysOp::kSort:
      return "Sort";
    case PhysOp::kHashAggregate:
      return "HashAggregate";
    case PhysOp::kStreamAggregate:
      return "StreamAggregate";
    case PhysOp::kTop:
      return "Top";
  }
  return "?";
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto out = std::make_unique<PlanNode>();
  out->op = op;
  out->mode = mode;
  out->parallel = parallel;
  out->table_id = table_id;
  out->index = index;
  out->seek_preds = seek_preds;
  out->residual_preds = residual_preds;
  out->join = join;
  out->sort_keys = sort_keys;
  out->group_by = group_by;
  out->aggregates = aggregates;
  out->top_n = top_n;
  out->output_columns = output_columns;
  out->output_width_bytes = output_width_bytes;
  out->stats = stats;
  out->children.reserve(children.size());
  for (const auto& c : children) out->children.push_back(c->Clone());
  return out;
}

std::string PlanNode::ToString(const Database& db, int indent) const {
  std::string pad(static_cast<size_t>(indent) * 2, ' ');
  std::string line = pad + PhysOpName(op);
  line += mode == ExecMode::kBatch ? " [Batch" : " [Row";
  line += parallel ? ",Parallel]" : ",Serial]";
  if (table_id >= 0 &&
      (op == PhysOp::kTableScan || op == PhysOp::kColumnstoreScan ||
       op == PhysOp::kIndexScan || op == PhysOp::kIndexSeek ||
       op == PhysOp::kKeyLookup)) {
    line += " " + db.table(table_id).name();
  }
  if (op == PhysOp::kIndexSeek || op == PhysOp::kIndexScan) {
    line += " (" + index.DisplayName(db) + ")";
  }
  for (const Predicate& p : seek_preds) {
    line += " seek:" + p.ToString(db);
  }
  for (const Predicate& p : residual_preds) {
    line += " where:" + p.ToString(db);
  }
  line += StrFormat("  est_rows=%.1f est_cost=%.3f", stats.est_rows,
                    stats.est_cost);
  if (stats.executed) {
    line += StrFormat(" actual_rows=%.0f actual_cost=%.3f",
                      stats.actual_rows, stats.actual_cost);
  }
  line += "\n";
  for (const auto& c : children) {
    line += c->ToString(db, indent + 1);
  }
  return line;
}

namespace {

// Every field ContentHash reads goes through one walk, fed to a sink:
// FNV-1a for ContentHash, a byte string for ContentKey. The running-state
// hash keeps fingerprinting allocation-free on the tuner's hot path.
constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

struct FnvSink {
  uint64_t h = kFnvOffset;
  void Add(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= kFnvPrime;
    }
  }
};

struct BytesSink {
  std::string bytes;
  void Add(const void* data, size_t n) {
    bytes.append(static_cast<const char*>(data), n);
  }
};

template <typename Sink>
void HashI64(Sink* h, int64_t v) {
  const uint64_t u = static_cast<uint64_t>(v);
  h->Add(&u, sizeof(u));
}

template <typename Sink>
void HashDouble(Sink* h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  h->Add(&bits, sizeof(bits));
}

template <typename Sink>
void HashColumn(Sink* h, const ColumnRef& c) {
  HashI64(h, c.table_id);
  HashI64(h, c.column_id);
}

template <typename Sink>
void HashValue(Sink* h, const Value& v) {
  HashI64(h, static_cast<int64_t>(v.type()));
  switch (v.type()) {
    case DataType::kInt64:
      HashI64(h, v.as_int());
      break;
    case DataType::kDouble:
      HashDouble(h, v.as_double());
      break;
    case DataType::kString:
      HashI64(h, static_cast<int64_t>(v.as_string().size()));
      h->Add(v.as_string().data(), v.as_string().size());
      break;
  }
}

template <typename Sink>
void HashPredicate(Sink* h, const Predicate& p) {
  HashI64(h, p.table_id);
  HashI64(h, p.column_id);
  HashI64(h, static_cast<int64_t>(p.op));
  HashValue(h, p.lo);
  HashValue(h, p.hi);
}

template <typename Sink>
void HashNode(Sink* h, const PlanNode& n) {
  HashI64(h, static_cast<int64_t>(n.op));
  HashI64(h, static_cast<int64_t>(n.mode));
  HashI64(h, n.parallel ? 1 : 0);
  HashI64(h, n.table_id);

  HashI64(h, n.index.table_id);
  HashI64(h, static_cast<int64_t>(n.index.key_columns.size()));
  for (int c : n.index.key_columns) HashI64(h, c);
  HashI64(h, static_cast<int64_t>(n.index.include_columns.size()));
  for (int c : n.index.include_columns) HashI64(h, c);
  HashI64(h, n.index.is_columnstore ? 1 : 0);

  HashI64(h, static_cast<int64_t>(n.seek_preds.size()));
  for (const Predicate& p : n.seek_preds) HashPredicate(h, p);
  HashI64(h, static_cast<int64_t>(n.residual_preds.size()));
  for (const Predicate& p : n.residual_preds) HashPredicate(h, p);

  HashColumn(h, n.join.left);
  HashColumn(h, n.join.right);

  HashI64(h, static_cast<int64_t>(n.sort_keys.size()));
  for (const SortKey& k : n.sort_keys) {
    HashColumn(h, k.col);
    HashI64(h, k.ascending ? 1 : 0);
  }
  HashI64(h, static_cast<int64_t>(n.group_by.size()));
  for (const ColumnRef& c : n.group_by) HashColumn(h, c);
  HashI64(h, static_cast<int64_t>(n.aggregates.size()));
  for (const AggItem& a : n.aggregates) {
    HashI64(h, static_cast<int64_t>(a.func));
    HashColumn(h, a.col);
  }
  HashI64(h, n.top_n);
  HashI64(h, static_cast<int64_t>(n.output_columns.size()));
  for (const ColumnRef& c : n.output_columns) HashColumn(h, c);
  HashDouble(h, n.output_width_bytes);

  // Only the optimizer estimates: the featurizer never reads actual_* and
  // executing a plan must not change its fingerprint.
  HashDouble(h, n.stats.est_rows);
  HashDouble(h, n.stats.est_executions);
  HashDouble(h, n.stats.est_access_rows);
  HashDouble(h, n.stats.est_bytes);
  HashDouble(h, n.stats.est_bytes_processed);
  HashDouble(h, n.stats.est_cost);
  HashDouble(h, n.stats.est_subtree_cost);

  HashI64(h, static_cast<int64_t>(n.children.size()));
  for (const auto& c : n.children) HashNode(h, *c);
}

template <typename Sink>
void HashPlan(Sink* h, const PhysicalPlan& plan) {
  HashI64(h, plan.degree_of_parallelism);
  HashDouble(h, plan.est_total_cost);
  HashI64(h, plan.root ? 1 : 0);
  if (plan.root) HashNode(h, *plan.root);
}

}  // namespace

uint64_t PhysicalPlan::ContentHash() const {
  FnvSink sink;
  HashPlan(&sink, *this);
  return sink.h;
}

std::string PhysicalPlan::ContentKey() const {
  BytesSink sink;
  HashPlan(&sink, *this);
  return std::move(sink.bytes);
}

std::unique_ptr<PhysicalPlan> PhysicalPlan::Clone() const {
  auto out = std::make_unique<PhysicalPlan>();
  out->root = root ? root->Clone() : nullptr;
  out->degree_of_parallelism = degree_of_parallelism;
  out->est_total_cost = est_total_cost;
  out->actual_total_cost = actual_total_cost;
  return out;
}

std::string PhysicalPlan::ToString(const Database& db) const {
  std::string out = StrFormat("Plan dop=%d est_cost=%.3f", degree_of_parallelism,
                              est_total_cost);
  if (actual_total_cost > 0) {
    out += StrFormat(" actual_cost=%.3f", actual_total_cost);
  }
  out += "\n";
  if (root) out += root->ToString(db, 1);
  return out;
}

double RowWidthBytes(const Database& db, const std::vector<ColumnRef>& cols) {
  double w = 0;
  for (const ColumnRef& c : cols) {
    w += static_cast<double>(
        db.table(c.table_id).column(static_cast<size_t>(c.column_id)).width_bytes());
  }
  return w;
}

}  // namespace aimai
