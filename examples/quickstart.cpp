// Quickstart: the service API in one sitting. Stand up a TuningService,
// register a tenant session, get an index recommendation as a scheduled
// job, then publish a classifier trained on the tenant's own execution
// history and re-tune with the model gating decisions.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target quickstart
//   ./build/examples/quickstart

#include <cstdio>

#include "models/classifier_model.h"
#include "service/service.h"
#include "workloads/collection.h"
#include "workloads/query_stream.h"

using namespace aimai;

int main() {
  // 1. Build a TPC-H-like database through MakePreparedQueryStream (the
  //    same path every workload family — and the traffic engine — uses).
  auto stream_or = MakePreparedQueryStream(
      {.kind = "tpch", .scale = 1, .seed = 42, .db_name = "quickstart_db"});
  if (!stream_or.ok()) {
    std::fprintf(stderr, "workload: %s\n",
                 stream_or.status().ToString().c_str());
    return 2;
  }
  auto bdb = (*stream_or)->TakeDatabase();
  std::printf("Built %s: %d tables, %zu queries\n", bdb->name().c_str(),
              bdb->db()->num_tables(), bdb->queries().size());

  // 2. Stand up the service: one shared thread pool, one shared what-if
  //    plan cache, one model registry — for every session we create.
  auto service_or = TuningService::Create(ServiceOptions());
  if (!service_or.ok()) {
    std::fprintf(stderr, "service: %s\n",
                 service_or.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<TuningService> service = std::move(service_or).value();

  // 3. Register this database as a tenant. With no model named, the
  //    session's jobs trust the optimizer's estimates ("Opt" in the paper).
  SessionOptions sopts;
  sopts.name = "quickstart";
  sopts.env = bdb->MakeEnv(/*node_id=*/0);
  sopts.comparator.regression_threshold = 0.2;
  auto session_or = service->CreateSession(sopts);
  if (!session_or.ok()) {
    std::fprintf(stderr, "session: %s\n",
                 session_or.status().ToString().c_str());
    return 2;
  }
  Session* session = session_or.value();

  // 4. Tune one query: submit a job, wait, read the outputs.
  const QuerySpec& q = bdb->queries()[2];
  auto job = session->TuneQuery(q, /*base=*/{}).value();
  job->Wait();
  const QueryTuningResult& rec = job->outputs().query;
  std::printf("\nOptimizer-driven recommendation for %s (%zu indexes):\n",
              q.name.c_str(), rec.new_indexes.size());
  for (const IndexDef& def : rec.new_indexes) {
    std::printf("  CREATE INDEX %s\n", def.DisplayName(*bdb->db()).c_str());
  }
  std::printf("  estimated: %.3f -> %.3f\n", rec.base_plan->est_total_cost,
              rec.final_plan->est_total_cost);

  // 5. Train the plan-pair classifier (paper's RF + pair_diff_normalized)
  //    on execution data collected from this database, and publish it.
  ExecutionDataRepository repo;
  CollectionOptions copts;
  copts.configs_per_query = 6;
  CollectExecutionData(bdb.get(), /*database_id=*/0, copts, &repo);
  Rng rng(7);
  PairFeaturizer featurizer(
      {Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
      PairCombine::kPairDiffNormalized);
  PairDatasetBuilder builder(&repo, featurizer, PairLabeler(0.2));
  Dataset train = builder.Build(repo.MakePairs(60, &rng));
  auto rf = MakeClassifier(ModelKind::kRandomForest, featurizer, /*seed=*/7);
  rf->Fit(train);
  const int version = service->models().Publish("pairwise", std::move(rf),
                                                featurizer);
  std::printf("\nPublished classifier 'pairwise' v%d (trained on %zu pairs)\n",
              version, train.n());

  // 6. A model-gated session over the same database: its jobs ask the
  //    latest published 'pairwise' version before adopting any index.
  SessionOptions mopts = sopts;
  mopts.name = "quickstart-model";
  mopts.model = "pairwise";
  Session* gated = service->CreateSession(mopts).value();
  auto gated_job = gated->TuneQuery(q, /*base=*/{}).value();
  gated_job->Wait();
  const QueryTuningResult& rec2 = gated_job->outputs().query;
  std::printf("Model-gated recommendation (%zu indexes): est %.3f -> %.3f\n",
              rec2.new_indexes.size(), rec2.base_plan->est_total_cost,
              rec2.final_plan->est_total_cost);

  // 7. Ground truth from the execution simulator, and service health.
  TuningEnv env = bdb->MakeEnv(0);
  const double c_base = env.ExecuteAndMeasure(q, {}).median_cost;
  const double c_rec = env.ExecuteAndMeasure(q, rec2.recommended).median_cost;
  std::printf("  measured CPU time: %.3f ms -> %.3f ms (%s)\n", c_base, c_rec,
              PairLabelName(PairLabeler(0.2).Label(c_base, c_rec)));
  // Re-running the same job is answered from the shared what-if cache
  // (keys are namespaced per session, so tenants never alias each other).
  auto rerun = gated->TuneQuery(q, /*base=*/{}).value();
  rerun->Wait();
  std::printf("\nShared what-if cache hit rate: %.1f%% over %lld lookups\n",
              100.0 * service->CacheHitRate(),
              static_cast<long long>(service->cache_domain().num_lookups()));
  service->Shutdown();
  return 0;
}
