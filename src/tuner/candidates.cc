#include "tuner/candidates.h"

#include <algorithm>
#include <set>

#include "common/check.h"
#include "exec/expression.h"

namespace aimai {

namespace {

/// Candidates kept per table and per query.
constexpr int kMaxPerTable = 8;
constexpr int kMaxPerQuery = 24;
/// Covering variants are emitted only when at most this many include
/// columns are needed (wide includes are unrealistic to maintain, and
/// bounding them keeps seek + key-lookup plans in the search space).
constexpr int kMaxIncludeColumns = 2;

/// Adds `def` to `out` if its canonical form is new.
void AddUnique(std::vector<IndexDef>* out, std::set<std::string>* seen,
               IndexDef def) {
  const std::string name = def.CanonicalName();
  if (seen->insert(name).second) out->push_back(std::move(def));
}

}  // namespace

std::vector<IndexDef> CandidateGenerator::GenerateForTable(
    const QuerySpec& q, int table_id) {
  const std::vector<Predicate> preds = q.PredicatesOn(table_id);
  const std::vector<int> refcols = q.ReferencedColumns(table_id);

  // Classify indexable columns.
  std::vector<int> eq_cols;
  std::vector<int> range_cols;
  for (const auto& [col, b] : ResolveConjunction(*db_, preds)) {
    const bool is_eq = b.has_lo && b.has_hi && !b.lo_open && !b.hi_open &&
                       b.lo == b.hi;
    if (is_eq) {
      eq_cols.push_back(col);
    } else {
      range_cols.push_back(col);
    }
  }
  std::vector<int> join_cols;
  for (const JoinCond& j : q.JoinsOn(table_id)) {
    const ColumnRef& c = j.left.table_id == table_id ? j.left : j.right;
    if (std::find(join_cols.begin(), join_cols.end(), c.column_id) ==
        join_cols.end()) {
      join_cols.push_back(c.column_id);
    }
  }
  std::vector<int> group_cols;
  for (const ColumnRef& c : q.group_by) {
    if (c.table_id == table_id) group_cols.push_back(c.column_id);
  }
  std::vector<int> order_cols;
  for (const SortKey& s : q.order_by) {
    if (s.col.table_id == table_id) order_cols.push_back(s.col.column_id);
  }

  // Most selective equality columns first (fewer rows per distinct value).
  std::sort(eq_cols.begin(), eq_cols.end(), [&](int a, int b) {
    return stats_->DistinctCount(table_id, a) >
           stats_->DistinctCount(table_id, b);
  });

  std::vector<IndexDef> out;
  std::set<std::string> seen;
  auto make = [&](std::vector<int> keys) {
    if (keys.empty()) return;
    IndexDef def;
    def.table_id = table_id;
    def.key_columns = std::move(keys);
    AddUnique(&out, &seen, def);
    IndexDef cover = def;
    cover.include_columns.clear();
    for (int c : refcols) {
      if (std::find(cover.key_columns.begin(), cover.key_columns.end(), c) ==
          cover.key_columns.end()) {
        cover.include_columns.push_back(c);
      }
    }
    if (!cover.include_columns.empty() &&
        static_cast<int>(cover.include_columns.size()) <=
            kMaxIncludeColumns) {
      AddUnique(&out, &seen, std::move(cover));
    }
  };

  // Single-column candidates.
  for (int c : eq_cols) make({c});
  for (int c : range_cols) make({c});
  for (int c : join_cols) make({c});

  // Multi-column: equality prefix, then each range column.
  if (!eq_cols.empty()) {
    make(eq_cols);
    for (int r : range_cols) {
      std::vector<int> keys = eq_cols;
      keys.push_back(r);
      make(std::move(keys));
    }
    // Join column leading (for nested-loop inners), then equalities.
    for (int j : join_cols) {
      std::vector<int> keys = {j};
      for (int c : eq_cols) {
        if (c != j) keys.push_back(c);
      }
      make(std::move(keys));
    }
  }

  // Grouping / ordering keys.
  make(group_cols);
  make(order_cols);

  if (static_cast<int>(out.size()) > kMaxPerTable) {
    out.resize(static_cast<size_t>(kMaxPerTable));
  }
  return out;
}

std::vector<IndexDef> CandidateGenerator::Generate(
    const QuerySpec& query, const Configuration& existing) {
  std::vector<IndexDef> out;
  std::set<std::string> seen;
  for (int t : query.tables) {
    for (IndexDef& def : GenerateForTable(query, t)) {
      const std::string name = def.CanonicalName();
      if (existing.Contains(name)) continue;
      if (seen.insert(name).second) out.push_back(std::move(def));
    }
  }
  if (static_cast<int>(out.size()) > kMaxPerQuery) {
    out.resize(static_cast<size_t>(kMaxPerQuery));
  }
  return out;
}

}  // namespace aimai
