#ifndef AIMAI_OPTIMIZER_WHAT_IF_H_
#define AIMAI_OPTIMIZER_WHAT_IF_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "optimizer/plan_enumerator.h"

namespace aimai {

/// A sharded plan cache that can be shared across WhatIfOptimizer
/// instances — the service runtime's "cache domain": every tenant session
/// gets its own optimizer bound to one process-wide domain, so memory and
/// eviction pressure are pooled while namespaced keys keep tenants from
/// ever aliasing each other's plans.
///
/// Thread-safe. One mutex per shard; the shard lock is held across the
/// compute callback so concurrent requests for the same key compute
/// exactly once (the losers of the race block briefly and then hit).
/// Values are shared_ptr: a plan stays alive for as long as any caller
/// holds it, even after eviction or Clear().
class PlanCacheDomain {
 public:
  /// `shards` is rounded up to a power of two; each shard holds at most
  /// `shard_capacity` plans and evicts its oldest entry (FIFO) beyond
  /// that, counting `whatif.cache_evictions`.
  struct Options {
    int shards = 16;
    size_t shard_capacity = 1 << 12;
  };

  PlanCacheDomain() : PlanCacheDomain(Options()) {}
  explicit PlanCacheDomain(Options options);

  PlanCacheDomain(const PlanCacheDomain&) = delete;
  PlanCacheDomain& operator=(const PlanCacheDomain&) = delete;

  /// Returns the cached plan for `key`, or computes, caches, and returns
  /// it. `*hit` reports which happened. The shard lock is held across
  /// `compute` — per-key work is exactly deduplicated under concurrency.
  std::shared_ptr<const PhysicalPlan> GetOrCompute(
      const std::string& key,
      const std::function<std::shared_ptr<const PhysicalPlan>()>& compute,
      bool* hit);

  /// Drops the cached plans whose keys begin with `key_prefix` (one
  /// tenant's namespace; every plan when empty). Outstanding handles stay
  /// valid.
  void Clear(const std::string& key_prefix);

  /// Total cached plans across all shards (approximate under concurrency).
  size_t size() const;

  int64_t num_lookups() const {
    return num_lookups_.load(std::memory_order_relaxed);
  }
  int64_t num_hits() const {
    return num_hits_.load(std::memory_order_relaxed);
  }
  int64_t num_evictions() const {
    return num_evictions_.load(std::memory_order_relaxed);
  }

 private:
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::shared_ptr<const PhysicalPlan>> map;
    std::deque<std::string> fifo;  // insertion order, for bounded eviction.
  };

  Shard& ShardFor(const std::string& key);

  size_t shard_mask_ = 0;
  size_t shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<int64_t> num_lookups_{0};
  std::atomic<int64_t> num_hits_{0};
  std::atomic<int64_t> num_evictions_{0};
};

/// The "what-if" API [Chaudhuri & Narasayya, 18]: obtain the optimizer's
/// plan and estimated cost for a *hypothetical* index configuration
/// without materializing any index. This is how the tuner stays "in-sync"
/// with the optimizer — the plan returned here is exactly the plan the
/// optimizer would pick if the configuration were implemented.
///
/// Optimization results are cached per (query content, configuration
/// fingerprint) in a PlanCacheDomain. By default each optimizer owns a
/// private domain; the service runtime instead binds many optimizers to
/// one shared domain, each under its own namespace (see the shared-domain
/// constructor) so tenants pool capacity without key collisions.
///
/// Thread-safe; counters are atomic. Plans are returned as shared_ptr:
/// callers keeping plans inside tuning results never dangle.
class WhatIfOptimizer {
 public:
  /// Private-domain constructor: a default-sized domain of its own.
  WhatIfOptimizer(const Database* db, StatisticsCatalog* stats);

  /// Shared-domain constructor: cache entries live in `domain` under
  /// `cache_namespace`. Distinct namespaces never alias — two tenants may
  /// issue byte-identical queries over byte-identical configurations and
  /// still get plans enumerated against their own statistics.
  WhatIfOptimizer(const Database* db, StatisticsCatalog* stats,
                  std::shared_ptr<PlanCacheDomain> domain,
                  std::string cache_namespace);

  WhatIfOptimizer(const WhatIfOptimizer&) = delete;
  WhatIfOptimizer& operator=(const WhatIfOptimizer&) = delete;

  /// Returns the optimizer's plan for `query` under hypothetical `config`.
  /// The plan is immutable and shared with the cache; Clone() it to
  /// execute. The returned handle keeps the plan alive independently of
  /// cache eviction and ClearCache().
  std::shared_ptr<const PhysicalPlan> Optimize(const QuerySpec& query,
                                               const Configuration& config);

  /// InvalidArgument unless `query` only references tables and columns
  /// that exist in this optimizer's database and has a join graph
  /// Optimize accepts (PlanEnumerator::CheckJoinGraph). The tuners' Status
  /// entry points validate user-supplied queries here, so bad input never
  /// aborts inside plan enumeration.
  Status ValidateQuery(const QuerySpec& query) const;

  int64_t num_calls() const {
    return num_calls_.load(std::memory_order_relaxed);
  }
  int64_t num_cache_hits() const {
    return num_cache_hits_.load(std::memory_order_relaxed);
  }
  /// Evictions in the underlying domain (domain-wide when shared).
  int64_t num_evictions() const { return domain_->num_evictions(); }

  /// Drops the cached plans in this optimizer's namespace: the whole
  /// domain when private.
  void ClearCache() { domain_->Clear(namespace_); }

  /// Cached plans in the underlying domain (domain-wide when shared).
  size_t cache_size() const { return domain_->size(); }

 private:
  const Database* db_;
  PlanEnumerator enumerator_;
  std::shared_ptr<PlanCacheDomain> domain_;
  std::string namespace_;  // Key prefix; empty for a private domain.
  std::atomic<int64_t> num_calls_{0};
  std::atomic<int64_t> num_cache_hits_{0};
};

}  // namespace aimai

#endif  // AIMAI_OPTIMIZER_WHAT_IF_H_
