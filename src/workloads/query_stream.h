#ifndef AIMAI_WORKLOADS_QUERY_STREAM_H_
#define AIMAI_WORKLOADS_QUERY_STREAM_H_

#include <functional>
#include <memory>
#include <mutex>
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
/// state). `kind` is the registry key ("tpch", "tpcds", "customerN",
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

/// Pluggable query-stream generator (modeled on ydb's
/// IWorkloadQueryGenerator): every workload family exposes the same three
/// phases —
///
///   GetDdl()             — the schema as CREATE TABLE text (what a real
///                          driver would execute against a server),
///   PrepareInitialData() — builds and populates the BenchmarkDatabase
///                          (tables, statistics, optimizer, executor,
///                          initial configuration); idempotent,
///   NextQueryBatch(n)    — up to n query instances of an *open-ended*
///                          stream. Closed families (tpch, tpcds,
///                          customer, tpch_sf) replay their template
///                          instances in a seeded shuffled cycle with
///                          fresh instance names; the synthetic family
///                          instantiates brand-new queries forever.
///
/// Streams are deterministic: two generators built from equal specs yield
/// byte-identical batches in the same call sequence, regardless of thread
/// counts anywhere else in the process. Generators are NOT thread-safe;
/// one caller (the traffic engine's schedule builder, a bench's driver
/// loop) owns the cursor.
class IQueryStreamGenerator {
 public:
  virtual ~IQueryStreamGenerator() = default;

  /// The registry kind this generator was created for.
  virtual const std::string& kind() const = 0;
  virtual const QueryStreamSpec& spec() const = 0;

  /// Schema DDL (builds the database on first use).
  virtual std::string GetDdl() = 0;

  /// Builds data + statistics; must succeed before NextQueryBatch.
  virtual Status PrepareInitialData() = 0;

  /// The built database; nullptr before PrepareInitialData (or after
  /// TakeDatabase).
  virtual BenchmarkDatabase* database() = 0;

  /// Draws the next batch (at most `max_queries` instances, at least one)
  /// from the stream. Instance names are unique across the stream's
  /// lifetime ("<template>~<seq>").
  virtual StatusOr<std::vector<QuerySpec>> NextQueryBatch(
      int max_queries) = 0;

  /// Relinquishes the built database (the deprecated Build* shims are
  /// this call). The generator is exhausted afterwards.
  virtual std::unique_ptr<BenchmarkDatabase> TakeDatabase() = 0;
};

/// Process-wide registry of query-stream factories. All built-in families
/// self-register on first access; external code may add its own kinds.
/// `Create` resolves an exact kind first, then the longest registered
/// prefix (which is how "customer3".."customer11" dispatch to the
/// "customer" factory).
class QueryStreamRegistry {
 public:
  using Factory = std::function<StatusOr<std::unique_ptr<IQueryStreamGenerator>>(
      const QueryStreamSpec&)>;

  /// The global registry with the built-in families installed.
  static QueryStreamRegistry& Global();

  QueryStreamRegistry() = default;
  QueryStreamRegistry(const QueryStreamRegistry&) = delete;
  QueryStreamRegistry& operator=(const QueryStreamRegistry&) = delete;

  /// Registers an exact kind; FailedPrecondition if taken.
  Status Register(const std::string& kind, Factory factory);
  /// Registers a prefix family ("customer" matches "customerN").
  Status RegisterPrefix(const std::string& prefix, Factory factory);

  /// Instantiates a generator for `spec.kind` (exact match first, then the
  /// longest registered prefix); InvalidArgument for unknown kinds.
  StatusOr<std::unique_ptr<IQueryStreamGenerator>> Create(
      const QueryStreamSpec& spec) const;

  /// True when `kind` would resolve (exactly or by prefix).
  bool Knows(const std::string& kind) const;

  /// Registered exact kinds plus prefix families (prefix kinds carry a
  /// trailing "*"), sorted.
  std::vector<std::string> Kinds() const;

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Factory>> exact_;
  std::vector<std::pair<std::string, Factory>> prefixes_;
};

/// Convenience: Create + PrepareInitialData through the global registry.
StatusOr<std::unique_ptr<IQueryStreamGenerator>> MakePreparedQueryStream(
    const QueryStreamSpec& spec);

/// Renders a database's schema as CREATE TABLE statements (the GetDdl
/// implementation shared by every built-in family).
std::string SchemaDdl(const Database& db);

}  // namespace aimai

#endif  // AIMAI_WORKLOADS_QUERY_STREAM_H_
