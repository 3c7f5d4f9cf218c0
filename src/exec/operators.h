#ifndef AIMAI_EXEC_OPERATORS_H_
#define AIMAI_EXEC_OPERATORS_H_

#include <cstdint>
#include <vector>

#include "catalog/database.h"
#include "exec/batch.h"
#include "exec/plan.h"

namespace aimai {

/// Intermediate relation flowing between operators. Tuples are compositions
/// of base-table row ids — values are always fetched from the base columns,
/// so no intermediate materialization of data happens, only of row
/// identities. `tables[i]` names the base table whose row id sits in slot i
/// of each tuple. Tuples are stored row-major in one flat array: tuple t is
/// `ids[t * width(), (t + 1) * width())`, so set `tables` before appending.
struct RowSet {
  std::vector<int> tables;
  std::vector<uint32_t> ids;

  /// Slot of `table_id` in the tuples, or -1.
  int SlotOf(int table_id) const;

  size_t width() const { return tables.size(); }
  size_t size() const { return tables.empty() ? 0 : ids.size() / width(); }
  const uint32_t* tuple(size_t t) const { return ids.data() + t * width(); }

  /// Appends one tuple of width() row ids.
  void Append(const uint32_t* tuple) {
    ids.insert(ids.end(), tuple, tuple + width());
  }
  /// Keeps the first `n` tuples (no-op when there are fewer).
  void Truncate(size_t n) {
    if (n < size()) ids.resize(n * width());
  }
};

/// Result of an aggregation: group keys (numeric views) and aggregate
/// values, one row per group.
struct AggResult {
  std::vector<std::vector<double>> group_keys;
  std::vector<std::vector<double>> agg_values;

  size_t size() const { return group_keys.size(); }
};

/// What an operator produces: either row compositions or aggregated rows.
struct ExecResult {
  bool is_agg = false;
  RowSet rows;
  AggResult agg;

  size_t size() const { return is_agg ? agg.size() : rows.size(); }
};

/// The numeric view of `col` within the tuples of one RowSet layout,
/// resolved once (slot and column), so per-tuple reads are a load and a
/// type switch.
struct SlotColumn {
  SlotColumn(const Database& db, const RowSet& rs, ColumnRef col);

  double At(const uint32_t* tuple) const { return view.NumericAt(tuple[slot]); }

  size_t slot;
  ColumnView view;
};

/// Hash join: build on `build` side using `build_col`, probe with `probe`
/// using `probe_col`. Output tuple layout: probe tables followed by build
/// tables (probe side streams). Output order: probe tuples in input order,
/// each one's matches newest build tuple first — the order
/// `std::unordered_multimap::equal_range` yields when the build side is
/// inserted in input order.
RowSet HashJoinRows(const Database& db, const RowSet& build,
                    ColumnRef build_col, const RowSet& probe,
                    ColumnRef probe_col);

/// Merge join of two inputs sorted on their join columns.
RowSet MergeJoinRows(const Database& db, const RowSet& left, ColumnRef left_col,
                     const RowSet& right, ColumnRef right_col);

/// In-place sort by key columns. Ties land where `std::sort` over the
/// tuples themselves would put them.
void SortRows(const Database& db, RowSet* rs,
              const std::vector<SortKey>& keys);

/// Groups `input` by `group_by` columns computing `aggs`. Used by both
/// hash and stream aggregate (they differ only in cost, not result).
AggResult AggregateRows(const Database& db, const RowSet& input,
                        const std::vector<ColumnRef>& group_by,
                        const std::vector<AggItem>& aggs);

/// Sorts an AggResult by its group keys (ascending); semantic stand-in for
/// ORDER BY over aggregate output (cardinality/cost are what matter here).
void SortAggResult(AggResult* agg);

}  // namespace aimai

#endif  // AIMAI_EXEC_OPERATORS_H_
