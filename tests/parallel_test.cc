// Concurrency tests: ThreadPool/WaitGroup/ParallelFor semantics, the
// sharded thread-safe what-if cache (exact hit accounting, per-key
// enumeration dedup, bounded shards), and regression tests for the three
// cache-correctness bugs fixed alongside the parallel engine:
//   1. use-after-free: ClearCache() freed plans still referenced by
//      tuning results (plans are now shared_ptr-pinned);
//   2. key collision: the cache keyed on query *name*, silently aliasing
//      distinct queries that shared one (now keyed on content);
//   3. Configuration::operator== allocated two fingerprint strings per
//      comparison (now compares map keys; behavior covered here, cost in
//      bench_overhead_micro).
// Run under TSan via scripts/check.sh (ctest -L parallel).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "optimizer/what_if.h"
#include "tuner/comparator.h"
#include "tuner/query_tuner.h"
#include "workloads/tpch_like.h"

namespace aimai {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  WaitGroup wg;
  wg.Add(100);
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] {
      count.fetch_add(1);
      wg.Done();
    });
  }
  wg.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DestructorFinishesQueuedTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&] { count.fetch_add(1); });
    }
  }  // Join drains the queue first.
  EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(&pool, hits.size(),
              [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForSerialFallbacks) {
  // Null pool, single-threaded pool, and n <= 1 all run inline.
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&](size_t i) {
    order.push_back(static_cast<int>(i));
    EXPECT_FALSE(ThreadPool::OnWorkerThread());
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));

  ThreadPool single(1);
  EXPECT_FALSE(WouldParallelize(&single, 100));
  ThreadPool pool(4);
  EXPECT_FALSE(WouldParallelize(&pool, 1));
  EXPECT_FALSE(WouldParallelize(nullptr, 100));
  EXPECT_TRUE(WouldParallelize(&pool, 2));
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineWithoutDeadlock) {
  // A fixed pool whose tasks fan out again must degrade the inner loop to
  // inline execution — otherwise 2 outer tasks on a 2-thread pool waiting
  // for inner tasks would deadlock forever.
  ThreadPool pool(2);
  std::atomic<int> inner_runs{0};
  ParallelFor(&pool, 4, [&](size_t) {
    EXPECT_TRUE(ThreadPool::OnWorkerThread());
    EXPECT_FALSE(WouldParallelize(&pool, 8));
    ParallelFor(&pool, 8, [&](size_t) { inner_runs.fetch_add(1); });
  });
  EXPECT_EQ(inner_runs.load(), 32);
}

TEST(ThreadPoolTest, ConfiguredThreadsResolutionOrder) {
  // Programmatic override wins over the environment.
  setenv("AIMAI_THREADS", "3", /*overwrite=*/1);
  SetConfiguredThreads(5);
  EXPECT_EQ(ConfiguredThreads(), 5);
  SetConfiguredThreads(0);
  EXPECT_EQ(ConfiguredThreads(), 3);
  unsetenv("AIMAI_THREADS");
  EXPECT_GE(ConfiguredThreads(), 1);
}

TEST(WhatIfConcurrencyTest, SameKeyHammerCountsExactly) {
  auto bdb = BuildTpchLike("par_hammer", 1, 0.5, 41);
  const QuerySpec& q = bdb->queries()[0];
  WhatIfOptimizer what_if(bdb->db(), bdb->stats());

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const PhysicalPlan>> plans(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { plans[t] = what_if.Optimize(q, {}); });
  }
  for (std::thread& t : threads) t.join();

  // The shard lock covers enumeration: one thread enumerates, the other
  // seven block and then hit. Exact accounting, no duplicate enumeration.
  EXPECT_EQ(what_if.num_calls(), kThreads);
  EXPECT_EQ(what_if.num_cache_hits(), kThreads - 1);
  EXPECT_EQ(what_if.cache_size(), 1u);
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(plans[t], plans[0]);
}

TEST(WhatIfConcurrencyTest, DistinctKeysEnumerateOncePerKey) {
  auto bdb = BuildTpchLike("par_keys", 1, 0.5, 42);
  WhatIfOptimizer what_if(bdb->db(), bdb->stats());
  const size_t nq = std::min<size_t>(bdb->queries().size(), 8);

  // Every thread walks every query: nq distinct keys, hammered 8 ways.
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < nq; ++i) {
        what_if.Optimize(bdb->queries()[i], {});
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(what_if.num_calls(), static_cast<int64_t>(kThreads * nq));
  // Exactly one miss (one enumeration) per distinct key.
  EXPECT_EQ(what_if.num_calls() - what_if.num_cache_hits(),
            static_cast<int64_t>(nq));
  EXPECT_EQ(what_if.cache_size(), nq);
}

TEST(WhatIfConcurrencyTest, ShardCapacityBoundsCacheAndCountsEvictions) {
  auto bdb = BuildTpchLike("par_evict", 1, 0.5, 43);
  PlanCacheDomain::Options copts;
  copts.shards = 1;  // One shard makes the bound exact.
  copts.shard_capacity = 4;
  WhatIfOptimizer what_if(bdb->db(), bdb->stats(),
                          std::make_shared<PlanCacheDomain>(copts), "evict");

  // 10 distinct queries -> 10 distinct keys through one shard.
  ASSERT_GE(bdb->queries().size(), 10u);
  std::vector<std::shared_ptr<const PhysicalPlan>> pinned;
  for (int i = 0; i < 10; ++i) {
    pinned.push_back(what_if.Optimize(bdb->queries()[i], {}));
  }
  EXPECT_EQ(what_if.cache_size(), 4u);
  EXPECT_EQ(what_if.num_evictions(), 6);
  // Evicted plans stay alive through the handles we kept.
  for (const auto& p : pinned) EXPECT_GT(p->est_total_cost, 0);
}

TEST(WhatIfCacheBugfixTest, ClearCacheDoesNotInvalidateReturnedPlans) {
  // Regression: plans were raw pointers into the cache map; ClearCache()
  // freed them while QueryTuningResult still pointed at them (ASAN caught
  // the read). shared_ptr pinning keeps every returned plan alive.
  auto bdb = BuildTpchLike("par_uaf", 1, 0.5, 44);
  CandidateGenerator gen(bdb->db(), bdb->stats());
  QueryLevelTuner tuner(bdb->db(), bdb->what_if(), &gen);
  OptimizerComparator cmp(0.0, 0.2);
  const QueryTuningResult r = tuner.Tune(bdb->queries()[0], {}, cmp);
  ASSERT_NE(r.base_plan, nullptr);
  ASSERT_NE(r.final_plan, nullptr);
  const double base_cost = r.base_plan->est_total_cost;

  bdb->what_if()->ClearCache();
  EXPECT_EQ(bdb->what_if()->cache_size(), 0u);

  // The pinned plans must still be fully readable (UAF under ASAN before).
  EXPECT_EQ(r.base_plan->est_total_cost, base_cost);
  EXPECT_LE(r.final_plan->est_total_cost, base_cost + 1e-9);
  EXPECT_FALSE(r.base_plan->ToString(*bdb->db()).empty());
}

TEST(WhatIfCacheBugfixTest, CacheKeysOnContentNotName) {
  // Regression: the key was `query.name + config fingerprint`, so two
  // distinct queries sharing a name aliased each other's plans.
  auto bdb = BuildTpchLike("par_alias", 1, 0.5, 45);
  const QuerySpec& q0 = bdb->queries()[0];
  QuerySpec q1 = bdb->queries()[1];
  ASSERT_NE(q0.ContentFingerprint(), q1.ContentFingerprint());
  q1.name = q0.name;  // Same name, different query.

  WhatIfOptimizer what_if(bdb->db(), bdb->stats());
  const auto p0 = what_if.Optimize(q0, {});
  const auto p1 = what_if.Optimize(q1, {});
  // Pre-fix this returned p0 for q1 (a cache "hit" on the shared name).
  EXPECT_NE(p0, p1);
  EXPECT_EQ(what_if.num_cache_hits(), 0);

  // And the flip side: the same content under a different name is the
  // same query — one enumeration, shared plan.
  QuerySpec renamed = q0;
  renamed.name = "something_else_entirely";
  EXPECT_EQ(what_if.Optimize(renamed, {}), p0);
  EXPECT_EQ(what_if.num_cache_hits(), 1);
}

TEST(WhatIfCacheBugfixTest, ContentFingerprintSeesConstants) {
  auto bdb = BuildTpchLike("par_fp", 1, 0.5, 46);
  QuerySpec a = bdb->queries()[0];
  QuerySpec b = a;
  ASSERT_EQ(a.ContentFingerprint(), b.ContentFingerprint());
  // Perturb one predicate constant: same template, different content.
  ASSERT_FALSE(b.predicates.empty());
  b.predicates[0].lo = Value::Int(1234567);
  b.predicates[0].hi = Value::Int(1234569);
  EXPECT_EQ(a.TemplateHash(), b.TemplateHash());
  EXPECT_NE(a.ContentFingerprint(), b.ContentFingerprint());
}

TEST(ConfigurationEqualityTest, ComparesByCanonicalNames) {
  IndexDef i1;
  i1.table_id = 0;
  i1.key_columns = {1, 2};
  IndexDef i2;
  i2.table_id = 1;
  i2.key_columns = {3};

  Configuration a, b;
  EXPECT_TRUE(a == b);
  a.Add(i1);
  EXPECT_TRUE(a != b);
  b.Add(i1);
  EXPECT_TRUE(a == b);
  a.Add(i2);
  b.Add(i2);
  EXPECT_TRUE(a == b);
  // Same size, different contents.
  Configuration c;
  c.Add(i1);
  IndexDef i3 = i2;
  i3.key_columns = {4};
  c.Add(i3);
  EXPECT_TRUE(a != c);
  // Equality must agree with the fingerprint it replaced.
  EXPECT_EQ(a == b, a.Fingerprint() == b.Fingerprint());
  EXPECT_EQ(a == c, a.Fingerprint() == c.Fingerprint());
}

TEST(ParallelTuningTest, QueryTunerSharesCacheAcrossThreadsSafely) {
  // Whole query-level tuners on worker threads against one shared
  // optimizer: the TSan stage of check.sh runs this with AIMAI_THREADS=8.
  auto bdb = BuildTpchLike("par_qt", 1, 0.9, 47);
  CandidateGenerator gen(bdb->db(), bdb->stats());
  ThreadPool pool(8);
  QueryLevelTuner::Options o;
  o.pool = &pool;
  QueryLevelTuner tuner(bdb->db(), bdb->what_if(), &gen, o);
  OptimizerComparator cmp(0.0, 0.2);

  const size_t nq = std::min<size_t>(bdb->queries().size(), 6);
  std::vector<QueryTuningResult> results(nq);
  ParallelFor(&pool, nq, [&](size_t i) {
    results[i] = tuner.Tune(bdb->queries()[i], {}, cmp);
  });
  for (size_t i = 0; i < nq; ++i) {
    ASSERT_NE(results[i].base_plan, nullptr);
    ASSERT_NE(results[i].final_plan, nullptr);
    EXPECT_LE(results[i].final_plan->est_total_cost,
              results[i].base_plan->est_total_cost + 1e-9);
  }
  // The shared cache stayed consistent: misses == distinct keys cached.
  EXPECT_EQ(bdb->what_if()->num_calls() - bdb->what_if()->num_cache_hits(),
            static_cast<int64_t>(bdb->what_if()->cache_size()));
}

}  // namespace
}  // namespace aimai
