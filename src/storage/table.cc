#include "storage/table.h"

#include <algorithm>

#include "common/check.h"
#include "common/serialize.h"

namespace aimai {

Column::Column(std::string name, DataType type)
    : name_(std::move(name)), type_(type) {}

size_t Column::size() const {
  switch (type_) {
    case DataType::kInt64:
      return ints_.size();
    case DataType::kDouble:
      return doubles_.size();
    case DataType::kString:
      return codes_.size();
  }
  return 0;
}

void Column::SetDictionary(std::vector<std::string> dict) {
  AIMAI_CHECK(type_ == DataType::kString);
  AIMAI_CHECK(std::is_sorted(dict.begin(), dict.end()));
  dict_ = std::move(dict);
}

int32_t Column::CodeOf(const std::string& s) const {
  auto it = std::lower_bound(dict_.begin(), dict_.end(), s);
  if (it == dict_.end() || *it != s) return -1;
  return static_cast<int32_t>(it - dict_.begin());
}

Value Column::GetValue(size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return Value::Int(ints_[row]);
    case DataType::kDouble:
      return Value::Real(doubles_[row]);
    case DataType::kString:
      return Value::Str(dict_[static_cast<size_t>(codes_[row])]);
  }
  return Value();
}

double Column::NumericAt(size_t row) const {
  switch (type_) {
    case DataType::kInt64:
      return static_cast<double>(ints_[row]);
    case DataType::kDouble:
      return doubles_[row];
    case DataType::kString:
      return static_cast<double>(codes_[row]);
  }
  return 0;
}

double Column::NumericOf(const Value& v) const {
  if (type_ != DataType::kString) return v.Numeric();
  AIMAI_CHECK(v.type() == DataType::kString);
  const std::string& s = v.as_string();
  auto it = std::lower_bound(dict_.begin(), dict_.end(), s);
  if (it != dict_.end() && *it == s) {
    return static_cast<double>(it - dict_.begin());
  }
  // Absent string: map between neighboring codes so <,> stay correct.
  return static_cast<double>(it - dict_.begin()) - 0.5;
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(n);
      break;
    case DataType::kDouble:
      doubles_.reserve(n);
      break;
    case DataType::kString:
      codes_.reserve(n);
      break;
  }
}

uint64_t Column::ContentFingerprint() const {
  // FNV-1a over a tagged byte stream: identity first, then the raw value
  // arrays. Hashing the contiguous vectors (not per-value loops) keeps
  // this linear-scan cheap even on 6M-row columns.
  uint64_t h = Fnv1a64(name_.data(), name_.size());
  const uint8_t tag = static_cast<uint8_t>(type_);
  h ^= Fnv1a64(&tag, 1);
  for (const std::string& word : dict_) {
    h = h * 1099511628211ULL ^ Fnv1a64(word.data(), word.size());
  }
  switch (type_) {
    case DataType::kInt64:
      h ^= Fnv1a64(ints_.data(), ints_.size() * sizeof(int64_t));
      break;
    case DataType::kDouble:
      h ^= Fnv1a64(doubles_.data(), doubles_.size() * sizeof(double));
      break;
    case DataType::kString:
      h ^= Fnv1a64(codes_.data(), codes_.size() * sizeof(int32_t));
      break;
  }
  return h;
}

Column* Table::AddColumn(const std::string& col_name, DataType type) {
  AIMAI_CHECK_MSG(column_index_.find(col_name) == column_index_.end(),
                  "duplicate column");
  column_index_[col_name] = static_cast<int>(columns_.size());
  columns_.push_back(std::make_unique<Column>(col_name, type));
  return columns_.back().get();
}

int Table::ColumnIndex(const std::string& col_name) const {
  auto it = column_index_.find(col_name);
  if (it == column_index_.end()) return -1;
  return it->second;
}

void Table::SealRows() {
  AIMAI_CHECK(!columns_.empty());
  num_rows_ = columns_[0]->size();
  for (const auto& c : columns_) {
    AIMAI_CHECK_MSG(c->size() == num_rows_, "ragged columns");
  }
}

void Table::ReserveRows(size_t n) {
  for (const auto& c : columns_) c->Reserve(n);
}

uint64_t Table::ContentFingerprint() const {
  uint64_t h = Fnv1a64(name_.data(), name_.size());
  for (const auto& c : columns_) {
    h = h * 1099511628211ULL ^ c->ContentFingerprint();
  }
  return h;
}

int64_t Table::SizeBytes() const {
  int64_t bytes = 0;
  for (const auto& c : columns_) {
    bytes += static_cast<int64_t>(num_rows_) * c->width_bytes();
  }
  return bytes;
}

}  // namespace aimai
