#ifndef AIMAI_TUNER_CANDIDATES_H_
#define AIMAI_TUNER_CANDIDATES_H_

#include <vector>

#include "catalog/configuration.h"
#include "optimizer/query.h"
#include "optimizer/statistics.h"

namespace aimai {

/// Syntactic candidate-index generation, following the classical recipe
/// [Chaudhuri & Narasayya '97]: indexable columns come from sargable
/// predicates, join conditions, grouping, and ordering; multi-column
/// candidates put equality columns (most selective first) before a range
/// column; covering variants add the remaining referenced columns as
/// includes. The search space is B-tree indexes: columnstores appear only
/// as initial configurations, as in the paper's TPC-DS 100g setup.
class CandidateGenerator {
 public:
  CandidateGenerator(const Database* db, StatisticsCatalog* stats)
      : db_(db), stats_(stats) {}

  /// Candidate indexes for one query, deduplicated, excluding those
  /// already in `existing`.
  std::vector<IndexDef> Generate(const QuerySpec& query,
                                 const Configuration& existing);

 private:
  std::vector<IndexDef> GenerateForTable(const QuerySpec& query,
                                         int table_id);

  const Database* db_;
  StatisticsCatalog* stats_;
};

}  // namespace aimai

#endif  // AIMAI_TUNER_CANDIDATES_H_
