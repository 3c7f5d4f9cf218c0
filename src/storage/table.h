#ifndef AIMAI_STORAGE_TABLE_H_
#define AIMAI_STORAGE_TABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "storage/value.h"

namespace aimai {

/// A typed in-memory column. Integer and double columns store raw values;
/// string columns are dictionary encoded with a *sorted* dictionary so that
/// code order equals lexicographic order (range predicates on the codes are
/// correct).
class Column {
 public:
  Column(std::string name, DataType type);

  const std::string& name() const { return name_; }
  DataType type() const { return type_; }
  size_t size() const;

  void AppendInt(int64_t v) {
    AIMAI_CHECK(type_ == DataType::kInt64);
    ints_.push_back(v);
  }
  void AppendDouble(double v) {
    AIMAI_CHECK(type_ == DataType::kDouble);
    doubles_.push_back(v);
  }
  /// Appends a string by dictionary code; use `BuildDictionary` first.
  void AppendCode(int32_t code) {
    AIMAI_CHECK(type_ == DataType::kString);
    AIMAI_CHECK(code >= 0 && static_cast<size_t>(code) < dict_.size());
    codes_.push_back(code);
  }

  /// Installs the (sorted, unique) dictionary for a string column.
  void SetDictionary(std::vector<std::string> dict);
  const std::vector<std::string>& dictionary() const { return dict_; }

  /// Looks up a string in the dictionary; returns -1 if absent.
  int32_t CodeOf(const std::string& s) const;

  int64_t GetInt(size_t row) const { return ints_[row]; }
  int32_t GetCode(size_t row) const { return codes_[row]; }

  /// Raw backing arrays for the vectorized executor's batch kernels
  /// (exactly one is non-empty per column, matching `type()`).
  const int64_t* ints_data() const { return ints_.data(); }
  const double* doubles_data() const { return doubles_.data(); }
  const int32_t* codes_data() const { return codes_.data(); }

  /// Generic accessor that materializes a Value (slow path, used by the
  /// executor for outputs and by tests).
  Value GetValue(size_t row) const;

  /// Numeric view of a cell: raw number for int/double, dictionary code for
  /// strings. This is what predicates, histograms, and indexes operate on,
  /// so all comparisons are cheap.
  double NumericAt(size_t row) const;

  /// Converts a constant of this column's type into its numeric view
  /// (strings map to their dictionary code; absent strings map to the code
  /// of the insertion point minus 0.5 so range predicates stay correct).
  double NumericOf(const Value& v) const;

  /// Reserves capacity for n rows.
  void Reserve(size_t n);

  /// Order-sensitive 64-bit hash of the column's contents (name, type,
  /// dictionary, and every value). Two columns compare equal iff they were
  /// filled with the identical value sequence — the determinism currency
  /// of the scale-factor generators (same seed => same fingerprint,
  /// parallel fill bit-identical to serial).
  uint64_t ContentFingerprint() const;

  int64_t width_bytes() const { return DataTypeWidth(type_); }

 private:
  std::string name_;
  DataType type_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<int32_t> codes_;
  std::vector<std::string> dict_;
};

/// Calls `fn(data)` with the column's typed backing array — `const
/// int64_t*`, `const double*` or `const int32_t*` (dictionary codes) — so a
/// sweep over the numeric view (`static_cast<double>(data[row])` equals
/// `NumericAt(row)`) pays no per-row type switch.
template <typename Fn>
void VisitNumericData(const Column& col, Fn&& fn) {
  switch (col.type()) {
    case DataType::kInt64:
      fn(col.ints_data());
      return;
    case DataType::kDouble:
      fn(col.doubles_data());
      return;
    case DataType::kString:
      fn(col.codes_data());
      return;
  }
}

/// An in-memory table: a set of equal-length columns. Tables are built once
/// by the data generators and then read-only during experiments.
class Table {
 public:
  explicit Table(std::string name) : name_(std::move(name)) {}

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  /// Adds a column definition; all columns must be added before rows.
  Column* AddColumn(const std::string& col_name, DataType type);

  Column* mutable_column(size_t i) { return columns_[i].get(); }
  const Column& column(size_t i) const { return *columns_[i]; }

  /// Returns the index of the named column, or -1.
  int ColumnIndex(const std::string& col_name) const;

  /// Must be called after bulk loading to fix the row count (validates all
  /// columns agree).
  void SealRows();

  /// Reserves capacity for `n` rows in every column added so far. Bulk
  /// generators call this once with the exact row count so multi-million
  /// row fills never pay vector-doubling overshoot (a 2x peak-memory tax
  /// at SF-scale).
  void ReserveRows(size_t n);

  /// Combined content hash over all columns (see Column::ContentFingerprint).
  uint64_t ContentFingerprint() const;

  /// Estimated heap size in bytes (for storage budgets & feature channels).
  int64_t SizeBytes() const;

 private:
  std::string name_;
  std::vector<std::unique_ptr<Column>> columns_;
  std::unordered_map<std::string, int> column_index_;
  size_t num_rows_ = 0;
};

}  // namespace aimai

#endif  // AIMAI_STORAGE_TABLE_H_
