// Example: continuous index tuning (Problem Statement 2) as a service
// workload. A model-gated session runs scheduled continuous-tuning jobs
// while a trainer hot-swaps fresh classifier versions into the service's
// model registry — the paper's "retrain as execution data accumulates"
// loop, with the running jobs picking each new version up at their next
// iteration. Also demonstrates graceful drain: the service checkpoints an
// in-flight run at an iteration boundary and resumes it bit-identically.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target continuous_tuning
//   ./build/examples/continuous_tuning

#include <cstdio>

#include "models/classifier_model.h"
#include "service/service.h"
#include "workloads/collection.h"
#include "workloads/customer.h"
#include "workloads/query_stream.h"

using namespace aimai;

namespace {

PairFeaturizer DefaultFeaturizer() {
  return PairFeaturizer({Channel::kEstNodeCost, Channel::kLeafBytesWeighted},
                        PairCombine::kPairDiffNormalized);
}

// Trains the paper's RF classifier on whatever `repo` holds.
std::unique_ptr<Classifier> TrainOn(const ExecutionDataRepository& repo,
                                    uint64_t seed) {
  Rng rng(seed);
  PairFeaturizer fz = DefaultFeaturizer();
  PairDatasetBuilder builder(&repo, fz, PairLabeler(0.2));
  auto model = MakeClassifier(ModelKind::kRandomForest, fz, seed);
  model->Fit(builder.Build(repo.MakePairs(60, &rng)));
  return model;
}

}  // namespace

int main() {
  // Offline model: trained on execution data from ANOTHER database, then
  // published to the service registry as version 1.
  std::printf("Collecting cross-database training data...\n");
  auto offline_db = MakePreparedQueryStream({.kind = "tpch",
                                             .scale = 3,
                                             .seed = 11,
                                             .db_name = "offline_db"})
                        .value()
                        ->TakeDatabase();
  ExecutionDataRepository offline_repo;
  CollectionOptions copts;
  copts.configs_per_query = 8;
  CollectExecutionData(offline_db.get(), 0, copts, &offline_repo);

  auto service = std::move(TuningService::Create(ServiceOptions()).value());
  service->models().Publish("pairwise", TrainOn(offline_repo, 5),
                            DefaultFeaturizer());

  // The database being continuously tuned: a complex "customer" app.
  CustomerProfile prof = CustomerProfileFor(6);
  prof.max_rows = 15000;
  prof.num_queries = 10;
  auto target = BuildCustomer("target_db", prof, 12);

  // Two sessions over the same tenant database: the classical tuner
  // (stops at its first regression) and the model-gated one.
  SessionOptions opt_sess;
  opt_sess.name = "tenant-opt";
  opt_sess.env = target->MakeEnv(1);
  opt_sess.comparator.regression_threshold = 0.2;
  opt_sess.iterations = 5;
  opt_sess.max_new_indexes = 3;
  opt_sess.stop_on_regression = true;
  Session* opt = service->CreateSession(opt_sess).value();

  SessionOptions model_sess = opt_sess;
  model_sess.name = "tenant-model";
  model_sess.env = target->MakeEnv(2);
  model_sess.model = "pairwise";
  model_sess.stop_on_regression = false;
  Session* gated = service->CreateSession(model_sess).value();

  std::printf("\n%-10s %-12s %10s %10s %8s %s\n", "query", "method",
              "initial", "final", "iters", "outcome");
  int opt_regress = 0, gated_regress = 0, version = 1;
  for (const QuerySpec& q : target->queries()) {
    auto opt_job = opt->TuneContinuous(q, target->initial_config()).value();
    auto gated_job =
        gated->TuneContinuous(q, target->initial_config()).value();
    opt_job->Wait();
    gated_job->Wait();
    const auto& t1 = opt_job->outputs().trace;
    const auto& t2 = gated_job->outputs().trace;
    opt_regress += t1.regress_final ? 1 : 0;
    gated_regress += t2.regress_final ? 1 : 0;
    std::printf("%-10s %-12s %9.2fms %9.2fms %8zu %s\n", q.name.c_str(),
                "Opt", t1.initial_cost, t1.final_cost, t1.iterations.size(),
                t1.regress_final ? "regressed+reverted" : "ok");
    std::printf("%-10s %-12s %9.2fms %9.2fms %8zu %s\n", "", "Model",
                t2.initial_cost, t2.final_cost, t2.iterations.size(),
                t2.regress_final ? "regressed+reverted" : "ok");

    // Adaptive retraining, service-style: once the model session has
    // accumulated enough of its own measurements, retrain on the union of
    // offline + local data and hot-swap the published model. Jobs already
    // running pick the new version up at their next iteration.
    if (gated->repo()->num_plans() >= 12) {
      ExecutionDataRepository merged;
      auto copy_into = [&merged](const ExecutionDataRepository& src) {
        for (size_t i = 0; i < src.num_plans(); ++i) {
          const ExecutedPlan& p = src.plan(static_cast<int>(i));
          ExecutedPlan dup;
          dup.database_id = p.database_id;
          dup.db_name = p.db_name;
          dup.query_name = p.query_name;
          dup.template_hash = p.template_hash;
          dup.config_fp = p.config_fp;
          dup.plan = p.plan->Clone();
          dup.exec_cost = p.exec_cost;
          dup.est_cost = p.est_cost;
          dup.features = p.features;
          merged.Add(std::move(dup));
        }
      };
      copy_into(offline_repo);
      copy_into(*gated->repo());
      version = service->models().Publish(
          "pairwise", TrainOn(merged, 17 + version), DefaultFeaturizer());
    }
  }
  std::printf(
      "\nFinal regressions — Opt: %d, Model: %d ('pairwise' is at v%d, "
      "retrained from %zu passively collected plans).\n",
      opt_regress, gated_regress, version, gated->repo()->num_plans());

  // Graceful drain: schedule one more long run, drain the service, and
  // resume the checkpointed state — the restart story for the runtime.
  auto long_job =
      gated->TuneContinuous(target->queries()[0], target->initial_config())
          .value();
  if (service->Drain().ok() &&
      long_job->phase() == JobPhase::kCheckpointed) {
    std::printf("\nDrain checkpointed %s at iteration %d; resuming...\n",
                target->queries()[0].name.c_str(),
                long_job->outputs().continuous_state.next_iteration);
    service->Resume();
    auto resumed = gated->ResumeContinuous(
        target->queries()[0], long_job->outputs().continuous_state);
    if (resumed.ok()) {
      resumed.value()->Wait();
      std::printf("Resumed run finished: %.2f ms -> %.2f ms\n",
                  resumed.value()->outputs().trace.initial_cost,
                  resumed.value()->outputs().trace.final_cost);
    }
  } else {
    std::printf("\nDrained with the job already finished (%s).\n",
                JobPhaseName(long_job->phase()));
    service->Resume();
  }
  service->Shutdown();
  return 0;
}
