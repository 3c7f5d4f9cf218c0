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
/// ids, sorted by (key, row id) with every key column compared by its
/// `OrderedBits` image (the double order on NaN-free keys). The bulk load
/// is one stable pass per key column, last column first: a counting sort
/// for integer columns with a dense domain (`kDenseSpanPerRow`), otherwise
/// one bucket split by value followed by an insertion sort, or an LSD
/// radix sort when a bucket would exceed `kMaxBucketEntries`. The entries
/// depend only on the table and the key columns, never on an index's
/// INCLUDE columns, so indexes that differ only there can share one
/// `BTreeIndex`. Leaves are implicit `kLeafCapacity`-entry
/// pages of that sequence and internal levels implicit `kInternalCapacity`-
/// way fan-outs over them; seeks binary-search the sequence with the same
/// prefix-compare semantics a root-to-leaf descent would apply.
class BTreeIndex {
 public:
  static constexpr int kLeafCapacity = 64;
  static constexpr int kInternalCapacity = 64;
  /// An int64 or dictionary-code key column whose values lie within ±2^53
  /// and span at most this many values per row sorts by counting (16 B/row
  /// of uint32_t counts at most).
  static constexpr size_t kDenseSpanPerRow = 4;
  /// Any other column is split into one bucket per row by its value's
  /// position in [min, max]; a column where some bucket would hold more
  /// rows than this (heavy duplicates, clustered values) takes the radix
  /// sort instead, which bounds the in-bucket insertion sort.
  static constexpr size_t kMaxBucketEntries = 64;

  /// Builds the index over `db.table(def.table_id)` keyed on
  /// `def.key_columns`; `def.include_columns` play no part.
  BTreeIndex(const Database& db, const IndexDef& def);

  BTreeIndex(const BTreeIndex&) = delete;
  BTreeIndex& operator=(const BTreeIndex&) = delete;

  int table_id() const { return table_id_; }
  const std::vector<int>& key_columns() const { return key_columns_; }
  size_t num_entries() const { return rows_.size(); }
  /// Levels from root to leaves (1 for a single leaf page).
  int height() const;

  /// The row ids whose key falls within `range`, in key order. The span
  /// views the index's own storage (qualifying entries are contiguous).
  std::span<const uint32_t> Seek(const KeyRange& range) const;

  /// The row ids whose leading key column equals `key` (as doubles, so
  /// -0.0 meets +0.0), in key order: one equal-range search over the
  /// entry sequence. A NaN `key` matches nothing, and neither does a NaN
  /// entry. On NaN-free keys this is `Seek` with the one-column bound
  /// `[key, key]`; nested-loop joins rebind their inner seeks with it.
  std::span<const uint32_t> SeekEqual(double key) const;

  /// SeekEqual for a run of probe keys. Every entry before `*cursor` must
  /// lead with a key below `key` (0 always qualifies; after a seek, a
  /// greater key may keep the cursor). The search gallops a few steps
  /// forward from the cursor before it bisects, so ascending probes cost
  /// about the log of their distance. Returns SeekEqual(key) and leaves
  /// `*cursor` at the end of the returned run.
  std::span<const uint32_t> SeekEqual(double key, size_t* cursor) const;

  /// Copying form of Seek.
  std::vector<uint32_t> SeekRange(const KeyRange& range) const;

  /// All row ids in key order (ordered index scan).
  std::vector<uint32_t> ScanAll() const { return rows_; }

  /// The row-major key array in entry order: entry i's key columns are
  /// `keys()[i * width, (i + 1) * width)`.
  std::span<const double> keys() const { return keys_; }

  /// Number of leaf pages holding at least one entry within `range`.
  size_t CountLeafPages(const KeyRange& range) const;

 private:
  /// [begin, end) entry positions of the keys within `range`.
  std::pair<size_t, size_t> Bounds(const KeyRange& range) const;

  const double* KeyAt(size_t i) const { return keys_.data() + i * width_; }

  int table_id_;
  std::vector<int> key_columns_;
  size_t width_ = 0;
  std::vector<double> keys_;    // Row-major, sorted by (key, row id).
  std::vector<uint32_t> rows_;  // rows_[i] owns keys_[i * width_, +width_).
};

}  // namespace aimai

#endif  // AIMAI_INDEX_BTREE_INDEX_H_
