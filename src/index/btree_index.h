#ifndef AIMAI_INDEX_BTREE_INDEX_H_
#define AIMAI_INDEX_BTREE_INDEX_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "catalog/schema.h"

namespace aimai {

class Database;

/// Composite index key: the numeric views of the key columns, compared
/// lexicographically. Strings participate via their dictionary codes.
using IndexKey = std::vector<double>;

int CompareKeys(const IndexKey& a, const IndexKey& b);

/// A bounds specification for a seek: keys are compared against a (possibly
/// shorter) prefix bound. An empty bound means unbounded on that side.
struct KeyRange {
  IndexKey lower;       // Compared against key prefix of same length.
  bool lower_open = false;
  IndexKey upper;
  bool upper_open = false;
  bool has_lower = false;
  bool has_upper = false;
};

/// An in-memory B+-tree secondary index mapping composite keys to base-table
/// row ids. Built once by bulk loading (the engine's tables are read-only
/// during experiments), supports point/range seeks and full ordered scans.
///
/// A bulk-loaded B+-tree over read-only data is fully determined by its
/// sorted entry sequence, so the index stores exactly that: one flat
/// row-major key array (`num_entries × width` doubles) and the matching row
/// ids, sorted by (key, row id). Leaves are implicit `kLeafCapacity`-entry
/// pages of that sequence and internal levels implicit `kInternalCapacity`-
/// way fan-outs over them; seeks binary-search the sequence with the same
/// prefix-compare semantics a root-to-leaf descent would apply.
class BTreeIndex {
 public:
  static constexpr int kLeafCapacity = 64;
  static constexpr int kInternalCapacity = 64;

  /// Builds the index over `db.table(def.table_id)`.
  BTreeIndex(const Database& db, IndexDef def);

  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;

  const IndexDef& def() const { return def_; }
  size_t num_entries() const { return rows_.size(); }
  /// Levels from root to leaves (1 for a single leaf page).
  int height() const;

  /// The row ids whose key falls within `range`, in key order. The span
  /// views the index's own storage (qualifying entries are contiguous).
  std::span<const uint32_t> Seek(const KeyRange& range) const;

  /// Copying form of Seek.
  std::vector<uint32_t> SeekRange(const KeyRange& range) const;

  /// All row ids in key order (ordered index scan).
  std::vector<uint32_t> ScanAll() const { return rows_; }

  /// Number of leaf pages holding at least one entry within `range`.
  size_t CountLeafPages(const KeyRange& range) const;

 private:
  /// [begin, end) entry positions of the keys within `range`.
  std::pair<size_t, size_t> Bounds(const KeyRange& range) const;

  const double* KeyAt(size_t i) const { return keys_.data() + i * width_; }

  IndexDef def_;
  size_t width_ = 0;
  std::vector<double> keys_;    // Row-major, sorted by (key, row id).
  std::vector<uint32_t> rows_;  // rows_[i] owns keys_[i * width_, +width_).
};

}  // namespace aimai

#endif  // AIMAI_INDEX_BTREE_INDEX_H_
