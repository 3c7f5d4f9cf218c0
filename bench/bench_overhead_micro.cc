// Microbenchmarks for the "Overhead" discussion in §7.9: model inference
// latency (the paper: tens of microseconds for the RF), plan-pair
// featurization, what-if optimization (cached and uncached), and adaptive
// (local meta-model) retraining. Uses google-benchmark.
//
// The BM_WhatIfUncachedObs* trio quantifies observability overhead on the
// instrumented what-if hot loop. Acceptance bars: obs disabled must cost
// <2% vs. enabled-untraced being the baseline shipped default, and enabled
// (metrics only) must stay within 10% of disabled. Compare:
//   BM_WhatIfUncachedObsOff    — kill switch off (counters/spans inert)
//   BM_WhatIfUncachedObsOn     — metrics on (shipped default)
//   BM_WhatIfUncachedObsTraced — metrics + trace-event collection
// BM_Span*/BM_Counter*/BM_Histogram* price the raw primitives.

#include <benchmark/benchmark.h>

#include "exec/kernels.h"
#include "harness.h"
#include "storage/data_generator.h"
#include "models/adaptive.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "workloads/tpch_like.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

/// Shared state, built once.
struct MicroState {
  std::unique_ptr<BenchmarkDatabase> bdb;
  ExecutionDataRepository repo;
  std::vector<PlanPairRef> pairs;
  PairFeaturizer featurizer = DefaultFeaturizer();
  PairLabeler labeler{0.2};
  std::shared_ptr<Classifier> rf;
  std::unique_ptr<Classifier> lgbm;
  Dataset dataset;

  static MicroState& Get() {
    static MicroState* state = [] {
      auto* s = new MicroState();
      s->bdb = BuildTpchLike("micro", 2, 0.9, 4242);
      CollectionOptions copts;
      copts.configs_per_query = 6;
      CollectExecutionData(s->bdb.get(), 0, copts, &s->repo);
      Rng rng(7);
      s->pairs = s->repo.MakePairs(40, &rng);
      PairDatasetBuilder builder(&s->repo, s->featurizer, s->labeler);
      s->dataset = builder.Build(s->pairs);
      s->rf = MakeClassifier(ModelKind::kRandomForest, s->featurizer, 1);
      s->rf->Fit(s->dataset);
      s->lgbm = MakeClassifier(ModelKind::kLightGbm, s->featurizer, 2);
      s->lgbm->Fit(s->dataset);
      return s;
    }();
    return *state;
  }
};

void BM_RfInference(benchmark::State& state) {
  MicroState& s = MicroState::Get();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.rf->Predict(s.dataset.Row(i)));
    i = (i + 1) % s.dataset.n();
  }
}
BENCHMARK(BM_RfInference);

void BM_LgbmInference(benchmark::State& state) {
  MicroState& s = MicroState::Get();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.lgbm->Predict(s.dataset.Row(i)));
    i = (i + 1) % s.dataset.n();
  }
}
BENCHMARK(BM_LgbmInference);

// Zero-allocation prediction: Predict/Uncertainty route through
// PredictProbaInto with caller (or stack) scratch; BM_RfPredictProba
// prices the allocating wrapper for contrast.
void BM_RfInferenceCallerScratch(benchmark::State& state) {
  MicroState& s = MicroState::Get();
  std::vector<double> scratch(
      static_cast<size_t>(s.rf->num_classes()));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.rf->Predict(s.dataset.Row(i), scratch.data()));
    i = (i + 1) % s.dataset.n();
  }
}
BENCHMARK(BM_RfInferenceCallerScratch);

void BM_RfUncertaintyZeroAlloc(benchmark::State& state) {
  MicroState& s = MicroState::Get();
  std::vector<double> scratch(
      static_cast<size_t>(s.rf->num_classes()));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        s.rf->UncertaintyInto(s.dataset.Row(i), scratch.data()));
    i = (i + 1) % s.dataset.n();
  }
}
BENCHMARK(BM_RfUncertaintyZeroAlloc);

void BM_RfPredictProba(benchmark::State& state) {
  MicroState& s = MicroState::Get();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.rf->PredictProba(s.dataset.Row(i)));
    i = (i + 1) % s.dataset.n();
  }
}
BENCHMARK(BM_RfPredictProba);

void BM_PairFeaturization(benchmark::State& state) {
  MicroState& s = MicroState::Get();
  const PhysicalPlan& p1 = *s.repo.plan(s.pairs[0].a).plan;
  const PhysicalPlan& p2 = *s.repo.plan(s.pairs[0].b).plan;
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.featurizer.Featurize(p1, p2));
  }
}
BENCHMARK(BM_PairFeaturization);

// Predicate filtering, scalar vs batch kernel: the row engine evaluates
// bound predicates row-at-a-time (RowMatchesBound); the vectorized engine
// sweeps the column's backing array with a branchless compare +
// selection-vector compaction (FilterDense). Same predicate, same rows.
struct FilterState {
  Database db{"micro_filter"};
  std::vector<BoundPredicate> bound;
  ColumnView view;
  BoundsSpec spec;
  size_t rows = 64 * 1024;

  static FilterState& Get() {
    static FilterState* state = [] {
      auto* s = new FilterState();
      DataGenerator gen(Rng{11});
      auto t = std::make_unique<Table>("t");
      gen.FillUniformInt(t->AddColumn("a", DataType::kInt64), s->rows, 0,
                         1000);
      t->SealRows();
      s->db.AddTable(std::move(t));
      Predicate p;
      p.table_id = 0;
      p.column_id = 0;
      p.op = CmpOp::kBetween;
      p.lo = Value::Int(100);
      p.hi = Value::Int(400);
      s->bound = BindConjunction(s->db, s->db.table(0), {p});
      s->view = ColumnView::Of(s->db.table(0).column(0));
      s->spec = BoundsSpec::From(s->bound[0].bounds);
      return s;
    }();
    return *state;
  }
};

void BM_FilterScalarRowMatches(benchmark::State& state) {
  FilterState& s = FilterState::Get();
  for (auto _ : state) {
    size_t pass = 0;
    for (size_t r = 0; r < s.rows; ++r) {
      pass += RowMatchesBound(s.bound, r) ? 1 : 0;
    }
    benchmark::DoNotOptimize(pass);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(s.rows));
}
BENCHMARK(BM_FilterScalarRowMatches);

void BM_FilterBatchKernel(benchmark::State& state) {
  FilterState& s = FilterState::Get();
  std::vector<uint32_t> sel(s.rows);
  for (auto _ : state) {
    const size_t n =
        FilterDense(s.view, 0, static_cast<uint32_t>(s.rows), s.spec,
                    sel.data());
    benchmark::DoNotOptimize(n);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(s.rows));
}
BENCHMARK(BM_FilterBatchKernel);

// Configuration equality sits on the tuner's hot search loops (Contains
// checks, quarantine lookups). It used to build two Fingerprint()
// strings per comparison; it now walks the canonical-name maps with zero
// allocations. BM_ConfigEqualityViaFingerprint prices the old approach
// for contrast.
void MakeEqualConfigs(Configuration* a, Configuration* b) {
  for (int i = 0; i < 8; ++i) {
    IndexDef idx;
    idx.table_id = i % 4;
    idx.key_columns = {i, i + 1};
    idx.include_columns = {i + 2};
    a->Add(idx);
    b->Add(idx);
  }
}

void BM_ConfigEquality(benchmark::State& state) {
  Configuration a, b;
  MakeEqualConfigs(&a, &b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a == b);
  }
}
BENCHMARK(BM_ConfigEquality);

void BM_ConfigEqualityViaFingerprint(benchmark::State& state) {
  Configuration a, b;
  MakeEqualConfigs(&a, &b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.Fingerprint() == b.Fingerprint());
  }
}
BENCHMARK(BM_ConfigEqualityViaFingerprint);

void BM_WhatIfCached(benchmark::State& state) {
  MicroState& s = MicroState::Get();
  const QuerySpec& q = s.bdb->queries()[2];
  Configuration empty;
  s.bdb->what_if()->Optimize(q, empty);  // Warm the cache.
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.bdb->what_if()->Optimize(q, empty));
  }
}
BENCHMARK(BM_WhatIfCached);

void BM_WhatIfUncached(benchmark::State& state) {
  MicroState& s = MicroState::Get();
  const QuerySpec& q = s.bdb->queries()[2];
  Configuration empty;
  for (auto _ : state) {
    s.bdb->what_if()->ClearCache();
    benchmark::DoNotOptimize(s.bdb->what_if()->Optimize(q, empty));
  }
}
BENCHMARK(BM_WhatIfUncached);

void RunWhatIfUncachedLoop(benchmark::State& state) {
  MicroState& s = MicroState::Get();
  const QuerySpec& q = s.bdb->queries()[2];
  Configuration empty;
  for (auto _ : state) {
    s.bdb->what_if()->ClearCache();
    benchmark::DoNotOptimize(s.bdb->what_if()->Optimize(q, empty));
  }
}

void BM_WhatIfUncachedObsOff(benchmark::State& state) {
  obs::SetEnabled(false);
  RunWhatIfUncachedLoop(state);
  obs::SetEnabled(true);
}
BENCHMARK(BM_WhatIfUncachedObsOff);

void BM_WhatIfUncachedObsOn(benchmark::State& state) {
  obs::SetEnabled(true);
  RunWhatIfUncachedLoop(state);
}
BENCHMARK(BM_WhatIfUncachedObsOn);

void BM_WhatIfUncachedObsTraced(benchmark::State& state) {
  obs::SetEnabled(true);
  obs::SetTraceEnabled(true);
  RunWhatIfUncachedLoop(state);
  obs::SetTraceEnabled(false);
  obs::Tracer().Clear();
}
BENCHMARK(BM_WhatIfUncachedObsTraced);

void BM_SpanEnabled(benchmark::State& state) {
  obs::SetEnabled(true);
  for (auto _ : state) {
    AIMAI_SPAN("bench.primitive_span");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SpanEnabled);

void BM_SpanDisabled(benchmark::State& state) {
  obs::SetEnabled(false);
  for (auto _ : state) {
    AIMAI_SPAN("bench.primitive_span_off");
    benchmark::ClobberMemory();
  }
  obs::SetEnabled(true);
}
BENCHMARK(BM_SpanDisabled);

void BM_CounterAdd(benchmark::State& state) {
  obs::SetEnabled(true);
  for (auto _ : state) {
    AIMAI_COUNTER_INC("bench.primitive_counter");
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_CounterAdd);

void BM_HistogramRecord(benchmark::State& state) {
  obs::Histogram* h =
      obs::Registry().GetHistogram("bench.primitive_histogram");
  int64_t v = 1;
  for (auto _ : state) {
    h->Record(v);
    v = (v * 1664525 + 1013904223) & 0xfffff;  // Vary the bucket hit.
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_AdaptiveRetrain(benchmark::State& state) {
  MicroState& s = MicroState::Get();
  // Local data: a few hundred pairs, as in the paper's per-invocation
  // retraining (which completes "within a minute"; ours is far smaller).
  std::vector<size_t> rows;
  for (size_t i = 0; i < std::min<size_t>(300, s.dataset.n()); ++i) {
    rows.push_back(i);
  }
  Dataset local = s.dataset.Subset(rows);
  for (auto _ : state) {
    MetaModelStrategy meta(s.rf, local, 99);
    benchmark::DoNotOptimize(&meta);
  }
}
BENCHMARK(BM_AdaptiveRetrain);

void BM_RfTraining(benchmark::State& state) {
  MicroState& s = MicroState::Get();
  for (auto _ : state) {
    auto model = MakeClassifier(ModelKind::kRandomForest, s.featurizer, 3);
    model->Fit(s.dataset);
    benchmark::DoNotOptimize(model.get());
  }
}
BENCHMARK(BM_RfTraining)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
