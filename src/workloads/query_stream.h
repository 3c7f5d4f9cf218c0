#ifndef AIMAI_WORKLOADS_QUERY_STREAM_H_
#define AIMAI_WORKLOADS_QUERY_STREAM_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "workloads/workload.h"

namespace aimai {

/// Parameters a query-stream generator is instantiated with. One spec
/// fully determines a generator: the same spec always produces the same
/// database (bit-identical ContentFingerprints) and the same query stream
/// (NextQueryBatch draws from a seeded Rng split, never from global
/// state). `kind` names the family ("tpch", "tpcds", "customerN",
/// "tpch_sf", "synthetic"). Every member has a default, so a designated
/// initializer may name any subset ({.kind = "tpch", .seed = 7}).
struct QueryStreamSpec {
  std::string kind{};
  /// Integer scale multiplier (toy tpch/tpcds/customer families).
  int scale = 1;
  /// Fractional TPC-H scale factor (tpch_sf family only).
  double sf = 0.01;
  /// Base seed for data generation AND the query stream.
  uint64_t seed = 42;
  /// Database name; empty resolves to "<kind>_db".
  std::string db_name{};

  std::string ResolvedDbName() const {
    return db_name.empty() ? kind + "_db" : db_name;
  }
};

/// Query-stream generator over a built workload database. Every family
/// exposes the same stream: NextQueryBatch(n) draws up to n query
/// instances of an *open-ended* stream. Closed families (tpch, tpcds,
/// customer, tpch_sf) replay their template instances in a seeded
/// shuffled cycle with fresh instance names; the synthetic family
/// instantiates brand-new queries forever.
///
/// Streams are deterministic: two generators built from equal specs yield
/// byte-identical batches in the same call sequence, regardless of thread
/// counts anywhere else in the process. Generators are NOT thread-safe;
/// one caller (the traffic engine's schedule builder, a bench's driver
/// loop) owns the cursor.
class IQueryStreamGenerator {
 public:
  IQueryStreamGenerator(QueryStreamSpec spec,
                        std::unique_ptr<BenchmarkDatabase> db);
  virtual ~IQueryStreamGenerator() = default;

  /// The built database; nullptr after TakeDatabase.
  BenchmarkDatabase* database() { return db_.get(); }

  /// Draws the next batch (at most `max_queries` instances, at least one)
  /// from the stream. Instance names are unique across the stream's
  /// lifetime ("<template>~<seq>").
  virtual StatusOr<std::vector<QuerySpec>> NextQueryBatch(
      int max_queries) = 0;

  /// Relinquishes the built database (how callers that only need the
  /// database get it). The generator is exhausted afterwards.
  std::unique_ptr<BenchmarkDatabase> TakeDatabase() { return std::move(db_); }

 protected:
  /// FailedPrecondition once the database has been taken.
  Status EnsureReady() const;

  QueryStreamSpec spec_;
  std::unique_ptr<BenchmarkDatabase> db_;
  Rng stream_rng_;
};

/// Validates `spec`, builds its database and returns the family's stream
/// over it. Kinds: "tpch", "tpcds", "tpch_sf", "synthetic" and
/// "customerN" (N in 1..11); InvalidArgument for anything else or for an
/// out-of-range spec.
StatusOr<std::unique_ptr<IQueryStreamGenerator>> MakePreparedQueryStream(
    const QueryStreamSpec& spec);

/// The kinds MakePreparedQueryStream accepts, sorted ("customer*" stands
/// for customer1..customer11).
const std::vector<std::string>& QueryStreamKinds();

}  // namespace aimai

#endif  // AIMAI_WORKLOADS_QUERY_STREAM_H_
