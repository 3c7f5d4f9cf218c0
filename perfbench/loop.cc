#include "loop.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "common/stats.h"
#include "common/string_util.h"
#include "exec/vectorized_executor.h"
#include "ml/metrics.h"
#include "models/labeler.h"
#include "models/repository_io.h"
#include "obs/metrics.h"
#include "report.h"
#include "service/service.h"
#include "tuner/comparator.h"
#include "tuner/query_tuner.h"
#include "workloads/collection.h"

namespace perfbench {

namespace {

using aimai::BenchmarkDatabase;
using aimai::Configuration;
using aimai::ExecutionDataRepository;
using aimai::IQueryStreamGenerator;
using aimai::QuerySpec;
using aimai::RandomForest;

aimai::PairFeaturizer DefaultFeaturizer() {
  return aimai::PairFeaturizer(
      {aimai::Channel::kEstNodeCost, aimai::Channel::kLeafBytesWeighted},
      aimai::PairCombine::kPairDiffNormalized);
}

std::unique_ptr<IQueryStreamGenerator> Prepare(const std::string& kind,
                                               int scale, double sf,
                                               uint64_t seed,
                                               const std::string& name) {
  aimai::QueryStreamSpec spec;
  spec.kind = kind;
  spec.scale = scale;
  spec.sf = sf;
  spec.seed = seed;
  spec.db_name = name;
  auto gen = aimai::MakePreparedQueryStream(spec);
  AIMAI_CHECK_MSG(gen.ok(), gen.status().ToString().c_str());
  return std::move(gen).value();
}

/// Every database a pass uses, built in set-up.
struct Databases {
  std::unique_ptr<BenchmarkDatabase> collect;
  std::vector<std::unique_ptr<BenchmarkDatabase>> tenants;
  std::vector<std::unique_ptr<IQueryStreamGenerator>> serve;
};

/// The collection and tenant databases are a fixed dataset (like TPC-H's),
/// not drawn from the benchmark seed: at these sizes a different database
/// moves collect time by tens of percent, which would drown the changes
/// the benchmark is for. The seed drives everything sampled over them —
/// the configurations collection implements, pair sampling and folds, the
/// learning loop, and the serve databases, queries and arrivals.
constexpr uint64_t kDatasetSeed = 42;

Databases Setup(const Preset& p, uint64_t seed) {
  Databases dbs;
  dbs.collect = Prepare("tpch_sf", 1, p.collect_sf,
                        DeriveSeed(kDatasetSeed, 10), "tpch_sf_db")
                    ->TakeDatabase();
  for (int k = 0; k < p.tune_tenants; ++k) {
    dbs.tenants.push_back(
        Prepare("tpcds", /*scale=*/1, 0.0,
                DeriveSeed(kDatasetSeed, 20 + static_cast<uint64_t>(k)),
                "tpcds_t" + std::to_string(k))
            ->TakeDatabase());
  }
  for (int k = 0; k < p.serve.databases; ++k) {
    dbs.serve.push_back(Prepare("synthetic", 1, 0.0,
                                DeriveSeed(seed, 30 + static_cast<uint64_t>(k)),
                                "synthetic_db" + std::to_string(k)));
  }
  return dbs;
}

aimai::CollectionOptions CollectOptions(const Preset& p, uint64_t seed) {
  aimai::CollectionOptions copts;
  copts.configs_per_query = p.configs_per_query;
  copts.seed = DeriveSeed(seed, 11);
  return copts;
}

/// Sum (seconds) and count of one span histogram, read live.
struct SpanReader {
  explicit SpanReader(const char* span)
      : hist(aimai::obs::Registry().GetHistogram(std::string(span) + ".ns")) {}
  double Seconds() const { return static_cast<double>(hist->sum()) * 1e-9; }
  aimai::obs::Histogram* hist;
};

/// Registry readings (span sums in seconds, counters) at one instant;
/// stage attribution takes differences of two of these.
class ObsMark {
 public:
  static ObsMark Take() {
    ObsMark m;
    const aimai::obs::MetricsSnapshot snap = aimai::obs::Registry().Snapshot();
    for (const auto& [name, v] : snap.counters) m.counters_[name] = v;
    for (const auto& [name, h] : snap.histograms) {
      m.spans_[name] = static_cast<double>(h.sum) * 1e-9;
      m.span_counts_[name] = h.count;
    }
    return m;
  }
  /// Seconds spent in span `name` between `from` and this mark.
  double SpanS(const ObsMark& from, const std::string& name) const {
    return Get(spans_, name + ".ns") - Get(from.spans_, name + ".ns");
  }
  int64_t SpanCount(const ObsMark& from, const std::string& name) const {
    return Get(span_counts_, name + ".ns") -
           Get(from.span_counts_, name + ".ns");
  }
  int64_t Count(const ObsMark& from, const std::string& name) const {
    return Get(counters_, name) - Get(from.counters_, name);
  }

 private:
  template <typename T>
  static T Get(const std::map<std::string, T>& m, const std::string& k) {
    auto it = m.find(k);
    return it == m.end() ? T{} : it->second;
  }
  std::map<std::string, int64_t> counters_;
  std::map<std::string, double> spans_;
  std::map<std::string, int64_t> span_counts_;
};

/// Per-layer timers of the traced collect stage.
struct CollectLayers {
  double tuner_s = 0;        // QueryLevelTuner::Tune + candidate generation.
  double tuner_whatif_s = 0; // What-if time inside those Tune calls.
  double whatif_s = 0;       // The measurement's own WhatIfOptimizer calls.
  double index_s = 0;
  int64_t index_builds = 0;
  double row_s = 0, batch_s = 0;
  int64_t plans_row = 0, plans_batch = 0;
  double cost_s = 0;
  double record_s = 0;
};

/// The §7.3 protocol of CollectExecutionData, driven through the public
/// calls of each layer so each can be timed from outside. Must produce a
/// repository byte-identical to CollectExecutionData's.
void CollectTraced(BenchmarkDatabase* bdb, const aimai::CollectionOptions& o,
                   ExecutionDataRepository* repo, CollectLayers* L) {
  const SpanReader whatif_span("whatif.optimize");
  aimai::Rng rng(o.seed);  // database_id 0: the id shift is a no-op.
  aimai::TuningEnv env = bdb->MakeEnv(0);
  env.cost_samples = o.cost_samples;
  aimai::CandidateGenerator candidates(bdb->db(), bdb->stats());
  aimai::QueryLevelTuner::Options qopts;
  qopts.max_new_indexes = o.max_indexes_per_query;
  aimai::QueryLevelTuner tuner(bdb->db(), bdb->what_if(), &candidates, qopts);
  aimai::OptimizerComparator comparator(0.0, /*regression_threshold=*/1e9);
  const Configuration& base = bdb->initial_config();
  aimai::IndexManager* indexes = bdb->indexes();
  aimai::Executor* executor = bdb->executor();
  aimai::ExecutionCostModel* exec_cost = bdb->exec_cost();

  for (const QuerySpec& query : bdb->queries()) {
    Clock::time_point t = Clock::now();
    const double w0 = whatif_span.Seconds();
    const aimai::QueryTuningResult rec = tuner.Tune(query, base, comparator);
    L->tuner_whatif_s += whatif_span.Seconds() - w0;

    std::vector<aimai::IndexDef> pool = rec.new_indexes;
    {
      std::vector<aimai::IndexDef> all = candidates.Generate(query, base);
      rng.Shuffle(&all);
      std::set<std::string> in_pool;
      for (const aimai::IndexDef& def : pool) in_pool.insert(def.CanonicalName());
      for (aimai::IndexDef& def : all) {
        if (pool.size() >= rec.new_indexes.size() + 3) break;
        if (in_pool.insert(def.CanonicalName()).second) {
          pool.push_back(std::move(def));
        }
      }
    }
    L->tuner_s += SecondsSince(t);

    std::vector<Configuration> configs;
    configs.push_back(base);
    if (!pool.empty()) {
      std::set<std::string> seen;
      seen.insert(base.Fingerprint());
      if (!rec.new_indexes.empty()) {
        Configuration full = base;
        for (const aimai::IndexDef& def : rec.new_indexes) full.Add(def);
        if (seen.insert(full.Fingerprint()).second) {
          configs.push_back(std::move(full));
        }
      }
      const size_t n_subsets =
          std::min<size_t>(static_cast<size_t>(o.configs_per_query),
                           1ULL << pool.size());
      int attempts = 0;
      while (configs.size() < n_subsets + 2 && attempts < 64) {
        ++attempts;
        Configuration sub = base;
        for (const aimai::IndexDef& def : pool) {
          if (rng.Bernoulli(0.4)) sub.Add(def);
        }
        if (seen.insert(sub.Fingerprint()).second) {
          configs.push_back(std::move(sub));
        }
      }
    }

    for (const Configuration& config : configs) {
      aimai::TuningEnv::Measurement m;
      t = Clock::now();
      m.plan = env.what_if->Optimize(query, config)->Clone();
      L->whatif_s += SecondsSince(t);

      const size_t built = indexes->num_built();
      t = Clock::now();
      indexes->Materialize(config);
      L->index_s += SecondsSince(t);
      L->index_builds += static_cast<int64_t>(indexes->num_built() - built);

      const bool batch = executor->mode() == aimai::ExecMode::kBatch &&
                         aimai::VectorizedExecutor::CanExecute(*m.plan->root);
      t = Clock::now();
      executor->Execute(m.plan.get());
      (batch ? L->batch_s : L->row_s) += SecondsSince(t);
      ++(batch ? L->plans_batch : L->plans_row);

      t = Clock::now();
      exec_cost->ComputeActualCost(m.plan.get());
      std::vector<double> samples;
      for (int s = 0; s < env.cost_samples; ++s) {
        samples.push_back(exec_cost->SampleNoisyCost(*m.plan, env.noise_rng));
      }
      m.samples_used = env.cost_samples;
      m.median_cost = aimai::Median(std::move(samples));
      L->cost_s += SecondsSince(t);

      t = Clock::now();
      env.Record(query, config, std::move(m), repo);
      L->record_s += SecondsSince(t);
    }
  }
}

/// Learn: pairs -> features -> random forest. The regression-class F1 is
/// pooled over the out-of-fold predictions of a query-grouped k-fold split,
/// so every pair is scored once by a model that never saw its query.
struct TrainOut {
  std::shared_ptr<RandomForest> model;
  double f1 = 0;
  double pairs_s = 0, dataset_s = 0, fit_s = 0, predict_s = 0;
  int64_t pairs = 0, predict_rows = 0, fits = 0;
};

TrainOut Train(const ExecutionDataRepository& repo, int folds,
               uint64_t seed) {
  TrainOut out;
  aimai::Rng rng(DeriveSeed(seed, 12));
  Clock::time_point t = Clock::now();
  const std::vector<aimai::PlanPairRef> pairs = repo.MakePairs(60, &rng);
  out.pairs_s = SecondsSince(t);
  out.pairs = static_cast<int64_t>(pairs.size());

  t = Clock::now();
  const aimai::PairDatasetBuilder builder(&repo, DefaultFeaturizer(),
                                          aimai::PairLabeler(0.2));
  const aimai::Dataset all = builder.Build(pairs);
  out.dataset_s = SecondsSince(t);

  std::vector<int> group_fold(static_cast<size_t>(repo.NumQueryGroups()));
  {
    std::vector<int> order(group_fold.size());
    for (size_t g = 0; g < order.size(); ++g) order[g] = static_cast<int>(g);
    rng.Shuffle(&order);
    for (size_t i = 0; i < order.size(); ++i) {
      group_fold[static_cast<size_t>(order[i])] =
          static_cast<int>(i) % folds;
    }
  }
  aimai::ConfusionMatrix cm(aimai::kNumPairLabels);
  for (int f = 0; f < folds; ++f) {
    std::vector<size_t> train_rows, test_rows;
    for (size_t i = 0; i < pairs.size(); ++i) {
      const int g = repo.QueryGroupOf(pairs[i].a);
      (group_fold[static_cast<size_t>(g)] == f ? test_rows : train_rows)
          .push_back(i);
    }
    if (train_rows.empty() || test_rows.empty()) continue;
    const aimai::Dataset train = all.Subset(train_rows);
    RandomForest rf;
    t = Clock::now();
    rf.Fit(train);
    out.fit_s += SecondsSince(t);
    ++out.fits;
    t = Clock::now();
    for (size_t r : test_rows) cm.Add(all.Label(r), rf.Predict(all.Row(r)));
    out.predict_s += SecondsSince(t);
    out.predict_rows += static_cast<int64_t>(test_rows.size());
  }
  out.f1 = cm.ForClass(aimai::kRegression).f1;

  out.model = std::make_shared<RandomForest>();
  t = Clock::now();
  out.model->Fit(all);
  out.fit_s += SecondsSince(t);
  ++out.fits;
  return out;
}

/// Tune: every tenant continuously tunes every query through one
/// TuningService, gated by the learned model, with the learning loop
/// retraining beside the tuning jobs on the same runner fleet.
struct TuneOut {
  double tune_s = 0;
  double log_ratio_sum = 0;  // Σ log(final / initial) over queries.
  int64_t queries = 0;
  int64_t jobs = 0, failed = 0, regressions = 0, retrains = 0;
  int64_t index_builds = 0;
  int64_t cache_lookups = 0, cache_hits = 0;
  std::string digest;
};

TuneOut Tune(const Preset& p, uint64_t seed,
             std::vector<std::unique_ptr<BenchmarkDatabase>>* tenants,
             std::shared_ptr<const RandomForest> model) {
  TuneOut out;
  size_t total_jobs = 0;
  for (const auto& db : *tenants) total_jobs += db->queries().size();

  aimai::LearningOptions learning;
  learning.enabled = true;
  learning.retrain_after = 8;
  learning.min_train_rows = 4;
  learning.min_holdout_rows = 2;
  learning.feedback.holdout_every = 3;
  learning.seed = DeriveSeed(seed, 13);

  aimai::ServiceOptions so;
  so.threads = 1;
  so.job_runners = kTuneRunners;
  so.max_inflight_jobs = kTuneRunners;
  // Never shed: room for every tuning job plus one retrain per tenant.
  so.max_queued_jobs = static_cast<int>(total_jobs + tenants->size() + 16);
  so.max_sessions = static_cast<int>(tenants->size()) + 1;
  so.learning = learning;
  auto service_or = aimai::TuningService::Create(so);
  AIMAI_CHECK_MSG(service_or.ok(), service_or.status().ToString().c_str());
  std::unique_ptr<aimai::TuningService> service =
      std::move(service_or).value();
  service->models().Publish("pairwise", std::move(model), DefaultFeaturizer());

  std::vector<aimai::Session*> sessions;
  size_t built_before = 0;
  for (size_t k = 0; k < tenants->size(); ++k) {
    BenchmarkDatabase* db = (*tenants)[k].get();
    built_before += db->indexes()->num_built();
    aimai::SessionOptions sopts;
    sopts.name = "tenant-" + std::to_string(k);
    sopts.env = db->MakeEnv(static_cast<int>(k));
    sopts.comparator.regression_threshold = 0.2;
    sopts.iterations = p.tune_iterations;
    sopts.model = "pairwise";
    auto session = service->CreateSession(sopts);
    AIMAI_CHECK_MSG(session.ok(), session.status().ToString().c_str());
    sessions.push_back(*session);
  }

  // Round-robin submission across tenants; handles kept per tenant.
  std::vector<std::vector<std::shared_ptr<aimai::TuningJob>>> jobs(
      tenants->size());
  const Clock::time_point t0 = Clock::now();
  for (size_t q = 0;; ++q) {
    bool any = false;
    for (size_t k = 0; k < tenants->size(); ++k) {
      BenchmarkDatabase* db = (*tenants)[k].get();
      if (q >= db->queries().size()) continue;
      any = true;
      ++out.jobs;
      auto job = sessions[k]->TuneContinuous(db->queries()[q],
                                             db->initial_config());
      if (job.ok()) {
        jobs[k].push_back(std::move(*job));
      } else {
        ++out.failed;  // A shed or rejected submit is a failed operation.
      }
    }
    if (!any) break;
  }
  for (auto& per_tenant : jobs) {
    for (auto& job : per_tenant) job->Wait();
  }
  for (aimai::Session* s : sessions) service->learning()->BarrierFor(s->name());
  out.tune_s = SecondsSince(t0);

  Digest digest;
  for (size_t k = 0; k < jobs.size(); ++k) {
    for (const auto& job : jobs[k]) {
      if (job->phase() != aimai::JobPhase::kDone) {
        ++out.failed;
        digest.Add("FAILED");
        continue;
      }
      const auto& trace = job->outputs().trace;
      if (trace.initial_cost > 0 && trace.final_cost > 0) {
        out.log_ratio_sum += std::log(trace.final_cost / trace.initial_cost);
        ++out.queries;
      }
      if (trace.regress_final) ++out.regressions;
      digest.Add(trace.query_name + "|" + trace.final_config.Fingerprint() +
                 aimai::StrFormat("|%.17g|%.17g|%d", trace.initial_cost,
                                  trace.final_cost,
                                  trace.regress_final ? 1 : 0));
    }
    const auto stats = service->learning()->StatsFor(sessions[k]->name());
    out.retrains += stats.retrains_completed;
  }
  out.digest = digest.Hex();
  out.cache_lookups = service->cache_domain().num_lookups();
  out.cache_hits = service->cache_domain().num_hits();
  service->Shutdown();
  size_t built_after = 0;
  for (const auto& db : *tenants) built_after += db->indexes()->num_built();
  out.index_builds = static_cast<int64_t>(built_after - built_before);
  return out;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

/// Repetitions of the learn stage per pass (train_s is their median).
constexpr int kTrainRepeats = 3;

/// CalibrationSeconds() on the quiet 4-core Xeon where the fixed serve
/// rates were measured.
constexpr double kQuietCalibrationS = 0.095;

PassResult RunPass(const Preset& preset, uint64_t seed, bool traced) {
  PassResult r;
  std::vector<double> calibration;
  for (int i = 0; i < 5; ++i) calibration.push_back(CalibrationSeconds());
  r.speed = kQuietCalibrationS / Median(std::move(calibration));
  const CpuTicks ticks0 = ReadCpuTicks();
  const ObsMark m0 = traced ? ObsMark::Take() : ObsMark();

  // --- Set-up: databases and statistics.
  Clock::time_point t = Clock::now();
  Databases dbs = Setup(preset, seed);
  r.setup_s = SecondsSince(t);
  CpuTicks ticks = ReadCpuTicks();
  r.steal_setup = StealFraction(ticks0, ticks);
  // Steal share since the previous stage boundary.
  auto stage_steal = [&ticks] {
    const CpuTicks now = ReadCpuTicks();
    const double f = StealFraction(ticks, now);
    ticks = now;
    return f;
  };

  // --- Collect: the §7.3 protocol over the tpch_sf database.
  ExecutionDataRepository repo;
  CollectLayers cl;
  t = Clock::now();
  if (traced) {
    CollectTraced(dbs.collect.get(), CollectOptions(preset, seed), &repo, &cl);
  } else {
    aimai::CollectExecutionData(dbs.collect.get(), 0,
                                CollectOptions(preset, seed), &repo);
  }
  r.collect_s = SecondsSince(t);
  r.steal_collect = stage_steal();
  {
    std::ostringstream bytes;
    const aimai::Status st = aimai::SaveRepository(&bytes, repo);
    if (!st.ok()) r.errors.push_back("SaveRepository: " + st.ToString());
    r.repo_bytes = bytes.str();
    Digest d;
    d.Add(r.repo_bytes);
    r.repo_digest = d.Hex();
  }
  const ObsMark m_collect = traced ? ObsMark::Take() : ObsMark();

  // --- Learn, repeated on the same repository (deterministic, so every
  // repetition fits the same model) for a steadier median time.
  TrainOut tr;
  std::vector<double> train_times;
  for (int i = 0; i < kTrainRepeats; ++i) {
    t = Clock::now();
    tr = Train(repo, preset.cv_folds, seed);
    train_times.push_back(SecondsSince(t));
  }
  r.train_s = Median(train_times);
  r.model_f1 = tr.f1;
  r.steal_train = stage_steal();
  const ObsMark m_train = traced ? ObsMark::Take() : ObsMark();

  // --- Tune.
  TuneOut tu = Tune(preset, seed, &dbs.tenants, tr.model);
  r.steal_tune = stage_steal();
  r.tune_s = tu.tune_s;
  r.tune_cost_ratio =
      tu.queries > 0
          ? std::exp(tu.log_ratio_sum / static_cast<double>(tu.queries))
          : 0.0;
  r.tune_regressions = tu.regressions;
  r.tune_digest = tu.digest;
  if (tu.failed > 0) {
    r.errors.push_back(std::to_string(tu.failed) + " tune jobs failed");
  }
  const ObsMark m_tune = traced ? ObsMark::Take() : ObsMark();

  // --- Serve.
  r.serve = RunServe(preset.serve, DeriveSeed(seed, 14), &dbs.serve);
  r.steal_serve = stage_steal();
  r.serve_digest = r.serve.digest;
  if (!r.serve.accounting_ok) {
    r.errors.push_back("serve accounting: arrived " +
                       std::to_string(r.serve.arrived) + " != admitted " +
                       std::to_string(r.serve.admitted) + " + shed " +
                       std::to_string(r.serve.shed) + " + rejected " +
                       std::to_string(r.serve.rejected));
  }
  r.wall_s = r.setup_s + r.collect_s + r.train_s + r.tune_s + r.serve.wall_s;

  r.attempted = static_cast<int64_t>(repo.num_plans()) +
                tr.fits * kTrainRepeats + tu.jobs +
                r.serve.arrived;
  r.failed = tu.failed + r.serve.shed + r.serve.rejected + r.serve.failed;

  if (!traced) return r;

  // --- Per-layer attribution of the traced pass.
  const ObsMark m_end = ObsMark::Take();
  LayerMap& L = r.layers;
  L["workloads.build_s"] = r.setup_s;

  // What-if: the measurement's direct calls, plus the span inside every
  // call the benchmark cannot time itself (Tune, service jobs).
  const double whatif_after_collect = m_end.SpanS(m_collect, "whatif.optimize");
  L["optimizer.whatif_s"] = cl.whatif_s + cl.tuner_whatif_s +
                            whatif_after_collect;
  const int64_t calls = m_end.Count(m0, "whatif.calls");
  L["optimizer.whatif_calls"] = static_cast<double>(calls);
  L["optimizer.whatif_hit_rate"] =
      Ratio(static_cast<double>(m_end.Count(m0, "whatif.cache_hits")),
            static_cast<double>(calls));
  L["optimizer.cache_evictions"] =
      static_cast<double>(m_end.Count(m0, "whatif.cache_evictions"));

  // Index builds: timed in collect; counted (no span exists) in tune.
  L["index.builds"] = static_cast<double>(cl.index_builds + tu.index_builds);
  L["index.build_s"] = cl.index_s;

  // Execution: timed in collect; exec spans in tune.
  const double tune_exec = m_tune.SpanS(m_train, "exec.execute");
  const double tune_vec = m_tune.SpanS(m_train, "exec.vectorized");
  const int64_t tune_plans = m_tune.Count(m_train, "exec.plans_executed");
  const int64_t tune_vec_plans = m_tune.Count(m_train, "exec.vectorized_plans");
  L["exec.plans_row"] =
      static_cast<double>(cl.plans_row + tune_plans - tune_vec_plans);
  L["exec.plans_batch"] = static_cast<double>(cl.plans_batch + tune_vec_plans);
  L["exec.row_s"] = cl.row_s + (tune_exec - tune_vec);
  L["exec.batch_s"] = cl.batch_s + tune_vec;
  L["exec.cost_s"] = cl.cost_s;

  L["models.record_s"] = cl.record_s;
  L["models.pairs"] = static_cast<double>(tr.pairs);

  L["featurize.dataset_s"] = tr.dataset_s;
  // Featurization in tune: pair lookups (cache hit or combine) and the
  // share of pair + plan feature lookups the caches served.
  const int64_t fz_hits = m_tune.Count(m_train, "featurize.cache_hits") +
                          m_tune.Count(m_train, "featurize.plan_cache_hits");
  const int64_t fz_combines = m_tune.Count(m_train, "featurize.pair_combines");
  const int64_t fz_plans =
      m_tune.Count(m_train, "featurize.plan_featurizations");
  L["featurize.pairs"] = static_cast<double>(
      m_tune.Count(m_train, "featurize.cache_hits") + fz_combines);
  L["featurize.cache_hit_rate"] =
      Ratio(static_cast<double>(fz_hits),
            static_cast<double>(fz_hits + fz_combines + fz_plans));

  L["ml.fit_s"] = tr.fit_s;
  L["ml.predict_rows"] = static_cast<double>(
      tr.predict_rows + m_tune.Count(m_train, "comparator.batched_pairs") +
      m_tune.SpanCount(m_train, "ml.rf.predict"));
  L["ml.predict_s"] = tr.predict_s +
                      m_tune.SpanS(m_train, "ml.rf.predict_batch") +
                      m_tune.SpanS(m_train, "ml.rf.predict");
  L["ml.retrains"] = static_cast<double>(tu.retrains);
  L["ml.retrain_s"] = m_tune.SpanS(m_train, "service.learning.retrain");

  L["tuner.query_tune_s"] =
      cl.tuner_s + m_end.SpanS(m_collect, "tuner.query_tune");
  L["tuner.candidates_evaluated"] = static_cast<double>(
      m_end.Count(m0, "tuner.query.candidates_evaluated"));
  L["tuner.prime_s"] = m_tune.SpanS(m_train, "comparator.prime");
  L["tuner.batch_predict_s"] =
      m_tune.SpanS(m_train, "comparator.batch_predict");
  L["tuner.decide_s"] = m_end.SpanS(m0, "tuner.comparator_decide");
  L["tuner.measure_s"] = m_tune.SpanS(m_train, "tuner.measure");

  L["service.queue_wait_ms_p50"] = r.serve.queue_wait_p50_ms;
  L["service.queue_wait_ms_p99"] = r.serve.queue_wait_p99_ms;
  L["service.run_ms_p50"] = r.serve.run_p50_ms;
  L["service.run_ms_p99"] = r.serve.run_p99_ms;
  L["service.shed"] =
      static_cast<double>(m_end.Count(m0, "service.jobs_shed"));
  L["service.cache_hit_rate"] =
      Ratio(static_cast<double>(tu.cache_hits + r.serve.cache_hits),
            static_cast<double>(tu.cache_lookups + r.serve.cache_lookups));

  L["traffic.gen_lag_ms_p99"] = r.serve.gen_lag_p99_ms;
  L["traffic.gen_lag_ms_max"] = r.serve.gen_lag_max_ms;
  L["traffic.poll_gap_us_p99"] = r.serve.poll_gap_p99_us;

  // Attribution: serial stages are timed directly; in the service stages
  // the top-level job spans (continuous query, retrain, query tune) are
  // compared with the runners' busy time (service.job). A continuous job
  // that waits at the retrain barrier (or runs the retrain inline) is not
  // busy in its own layers, so the barrier is taken out of its span.
  const double collect_attr = cl.tuner_s + cl.whatif_s + cl.index_s +
                              cl.row_s + cl.batch_s + cl.cost_s + cl.record_s;
  const double train_attr = tr.pairs_s + tr.dataset_s + tr.fit_s +
                            tr.predict_s;
  const double tune_attr =
      m_tune.SpanS(m_train, "tuner.continuous.query") -
      m_tune.SpanS(m_train, "service.learning.retrain_barrier") +
      m_tune.SpanS(m_train, "service.learning.retrain");
  const double serve_attr = m_end.SpanS(m_tune, "tuner.query_tune");
  const double tune_busy = m_tune.SpanS(m_train, "service.job");
  const double serve_busy = m_end.SpanS(m_tune, "service.job");
  L["trace.attributed_frac"] =
      Ratio(r.setup_s + collect_attr + train_attr + tune_attr + serve_attr,
            r.setup_s + r.collect_s + r.train_s + tune_busy + serve_busy);
  return r;
}

}  // namespace perfbench
