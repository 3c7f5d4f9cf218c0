#ifndef AIMAI_INDEX_INDEX_MANAGER_H_
#define AIMAI_INDEX_INDEX_MANAGER_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "catalog/configuration.h"
#include "catalog/database.h"
#include "index/btree_index.h"

namespace aimai {

/// Materializes B+-tree indexes on demand and caches them by table and
/// ordered key columns: a `BTreeIndex`'s entries depend on nothing else,
/// so indexes that differ only in their INCLUDE columns share one build.
/// The executors call `GetOrBuild` for the indexes a plan reads, so an
/// index is built on the first plan that reads it; `Materialize` is for
/// callers that want every index of a configuration up front.
///
/// Columnstore indexes carry no auxiliary structure here — a columnstore
/// scan reads the base table in batch mode — so they are tracked only as
/// metadata.
class IndexManager {
 public:
  explicit IndexManager(const Database* db) : db_(db) {}

  IndexManager(const IndexManager&) = delete;
  IndexManager& operator=(const IndexManager&) = delete;

  /// Returns the materialized B+-tree for `def`'s table and key columns,
  /// building it if needed. `def` must not be a columnstore.
  const BTreeIndex* GetOrBuild(const IndexDef& def);

  /// Ensures every row-store index in `config` is materialized.
  void Materialize(const Configuration& config);

  /// Number of distinct physical indexes built so far.
  size_t num_built() const { return cache_.size(); }

  const Database& db() const { return *db_; }

 private:
  /// (table id, key columns in key order).
  using Key = std::pair<int, std::vector<int>>;

  const Database* db_;
  std::map<Key, std::unique_ptr<BTreeIndex>> cache_;
};

}  // namespace aimai

#endif  // AIMAI_INDEX_INDEX_MANAGER_H_
