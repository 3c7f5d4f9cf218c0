#include "optimizer/what_if.h"

#include <utility>

#include "common/check.h"
#include "common/string_util.h"
#include "obs/obs.h"

namespace aimai {

namespace {

size_t RoundUpPow2(size_t v) {
  size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

// Namespace keys as "<ns>\x1e<key>": \x1e never appears in a namespace
// (service session names are validated printable), so distinct namespaces
// can never produce colliding composite keys.
constexpr char kNamespaceSep = '\x1e';

}  // namespace

PlanCacheDomain::PlanCacheDomain(Options options) {
  AIMAI_CHECK(options.shards >= 1);
  AIMAI_CHECK(options.shard_capacity >= 1);
  const size_t n = RoundUpPow2(static_cast<size_t>(options.shards));
  shard_mask_ = n - 1;
  shard_capacity_ = options.shard_capacity;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
}

PlanCacheDomain::Shard& PlanCacheDomain::ShardFor(const std::string& key) {
  return *shards_[std::hash<std::string>{}(key) & shard_mask_];
}

std::shared_ptr<const PhysicalPlan> PlanCacheDomain::GetOrCompute(
    const std::string& key,
    const std::function<std::shared_ptr<const PhysicalPlan>()>& compute,
    bool* hit) {
  num_lookups_.fetch_add(1, std::memory_order_relaxed);
  Shard& shard = ShardFor(key);
  // The shard lock is held across `compute` below: if N threads race on
  // one key, one computes and N-1 block here and then hit. That keeps
  // per-key work deduplicated and the lookup/hit accounting exact.
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(key);
  if (it != shard.map.end()) {
    num_hits_.fetch_add(1, std::memory_order_relaxed);
    *hit = true;
    return it->second;
  }
  *hit = false;
  std::shared_ptr<const PhysicalPlan> plan = compute();
  if (shard.map.size() >= shard_capacity_) {
    shard.map.erase(shard.fifo.front());
    shard.fifo.pop_front();
    num_evictions_.fetch_add(1, std::memory_order_relaxed);
    AIMAI_COUNTER_INC("whatif.cache_evictions");
  }
  shard.map.emplace(key, plan);
  shard.fifo.push_back(key);
  return plan;
}

void PlanCacheDomain::Clear(const std::string& key_prefix) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    std::deque<std::string> kept;
    for (std::string& key : shard->fifo) {
      if (key.compare(0, key_prefix.size(), key_prefix) == 0) {
        shard->map.erase(key);
      } else {
        kept.push_back(std::move(key));
      }
    }
    shard->fifo = std::move(kept);
  }
}

size_t PlanCacheDomain::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

WhatIfOptimizer::WhatIfOptimizer(const Database* db, StatisticsCatalog* stats)
    : db_(db),
      enumerator_(db, stats),
      domain_(std::make_shared<PlanCacheDomain>()) {}

WhatIfOptimizer::WhatIfOptimizer(const Database* db, StatisticsCatalog* stats,
                                 std::shared_ptr<PlanCacheDomain> domain,
                                 std::string cache_namespace)
    : db_(db),
      enumerator_(db, stats),
      domain_(std::move(domain)),
      namespace_(std::move(cache_namespace) + kNamespaceSep) {
  AIMAI_CHECK(domain_ != nullptr);
}

std::shared_ptr<const PhysicalPlan> WhatIfOptimizer::Optimize(
    const QuerySpec& query, const Configuration& config) {
  num_calls_.fetch_add(1, std::memory_order_relaxed);
  AIMAI_COUNTER_INC("whatif.calls");
  // Key on the query's *content*, never its name: two differently-named
  // copies of one query share a plan, and two distinct queries that happen
  // to share a name do not alias each other's plans. The namespace prefix
  // (empty for private domains) keeps tenants of a shared domain apart.
  const std::string key =
      namespace_ + query.ContentFingerprint() + "\x1f" + config.Fingerprint();
  bool hit = false;
  std::shared_ptr<const PhysicalPlan> plan =
      domain_->GetOrCompute(key, [&]() -> std::shared_ptr<const PhysicalPlan> {
        // The cache-hit path stays span-free on purpose: a hit is ~100ns
        // and a span's two clock reads would dominate it.
        AIMAI_SPAN("whatif.optimize");
        return enumerator_.Optimize(query, config);
      }, &hit);
  if (hit) {
    num_cache_hits_.fetch_add(1, std::memory_order_relaxed);
    AIMAI_COUNTER_INC("whatif.cache_hits");
  }
  return plan;
}

Status WhatIfOptimizer::ValidateQuery(const QuerySpec& query) const {
  auto table_ok = [&](int t) { return t >= 0 && t < db_->num_tables(); };
  auto column_ok = [&](int t, int c) {
    return table_ok(t) && c >= 0 &&
           c < static_cast<int>(db_->table(t).num_columns());
  };
  for (int t : query.tables) {
    if (!table_ok(t)) {
      return Status::InvalidArgument(
          StrFormat("query '%s' references unknown table %d",
                    query.name.c_str(), t));
    }
  }
  for (const Predicate& p : query.predicates) {
    if (!column_ok(p.table_id, p.column_id)) {
      return Status::InvalidArgument(
          StrFormat("query '%s' predicate references unknown column %d.%d",
                    query.name.c_str(), p.table_id, p.column_id));
    }
  }
  for (const JoinCond& j : query.joins) {
    if (!column_ok(j.left.table_id, j.left.column_id) ||
        !column_ok(j.right.table_id, j.right.column_id)) {
      return Status::InvalidArgument(
          StrFormat("query '%s' join references unknown columns",
                    query.name.c_str()));
    }
  }
  if (query.tables.empty()) {
    return Status::InvalidArgument(
        StrFormat("query '%s' references no tables", query.name.c_str()));
  }
  return PlanEnumerator::CheckJoinGraph(query);
}

}  // namespace aimai
