// Figure 10: adaptive strategies (§4.3, §6.2.3) on a held-out database as
// k plans per query leak into the local training data: Local-only,
// Uncertainty, Nearest-Neighbor, Meta model, and the transfer-learned
// Hybrid DNN, against the unadapted Offline model. The paper finds all
// lightweight adaptives above Offline from k=2, the meta model among the
// best (often beating Local), Hybrid DNN lagging, and ~2x error reduction
// by k=8.

#include "harness.h"
#include "models/adaptive.h"

using namespace aimai;
using namespace aimai::bench;

namespace {

ConfusionMatrix EvaluateStrategy(const SuiteData& data,
                                 const std::vector<size_t>& test_idx,
                                 const PairDatasetBuilder& builder,
                                 const AdaptiveStrategy& strategy,
                                 const PairLabeler& labeler) {
  ConfusionMatrix cm(3);
  for (size_t i : test_idx) {
    const PlanPairRef& p = data.pairs[i];
    const ExecutedPlan& a = data.repo.plan(p.a);
    const ExecutedPlan& b = data.repo.plan(p.b);
    const int truth = labeler.Label(a.exec_cost, b.exec_cost);
    const std::vector<double> x = builder.Features(p);
    cm.Add(truth, strategy.Predict(x.data()));
  }
  return cm;
}

}  // namespace

int main() {
  const HarnessOptions options = HarnessOptions::FromEnv();
  SuiteData data = BuildAndCollect(options);
  const PairLabeler labeler(0.2);
  const PairFeaturizer featurizer = DefaultFeaturizer();
  PairDatasetBuilder builder(&data.repo, featurizer, labeler);

  const int ks[] = {2, 4, 8};
  const int num_dbs = static_cast<int>(data.suite.size());
  const int db_step = options.full ? 1 : 3;

  // Aggregated confusion per (strategy, k). Strategy order:
  // Offline, Local, Uncertainty, NearestNeighbor, Meta, HybridDNN.
  const char* names[] = {"Offline",         "Local", "Uncertainty",
                         "NearestNeighbor", "Meta",  "HybridDNN"};
  std::vector<std::vector<ConfusionMatrix>> agg(
      6, std::vector<ConfusionMatrix>(3, ConfusionMatrix(3)));

  for (int held = 0; held < num_dbs; held += db_step) {
    // The offline models are trained once per hold-out (k=0 split).
    Rng rng0(options.seed + static_cast<uint64_t>(held) * 71);
    const SplitIndices base_split = HoldoutWithLeak(data, held, 0, &rng0);
    if (base_split.test.empty()) continue;
    std::fprintf(stderr, "[fig10] hold out %s\n",
                 data.suite[static_cast<size_t>(held)]->name().c_str());

    const std::shared_ptr<const Classifier> offline_rf = TrainClassifier(
        ModelKind::kRandomForest, data, base_split.train, featurizer, labeler,
        options.seed + static_cast<uint64_t>(held));
    std::unique_ptr<Classifier> offline_hybrid = TrainClassifier(
        ModelKind::kHybridDnn, data, base_split.train, featurizer, labeler,
        options.seed + static_cast<uint64_t>(held) + 1);

    for (size_t ki = 0; ki < 3; ++ki) {
      const int k = ks[ki];
      Rng rng(options.seed + static_cast<uint64_t>(held) * 17 +
              static_cast<uint64_t>(k));
      const SplitIndices split = HoldoutWithLeak(data, held, k, &rng);
      if (split.test.empty()) continue;

      // Local training data: the held-out pairs that leaked.
      std::vector<PlanPairRef> local_pairs;
      for (size_t i : split.train) {
        if (data.repo.DatabaseGroupOf(data.pairs[i].a) == held) {
          local_pairs.push_back(data.pairs[i]);
        }
      }
      if (local_pairs.size() < 6) continue;
      Dataset local = builder.Build(local_pairs);
      // Local data can lack a class; strategies need all three present for
      // fair probability comparisons — pad NumClasses via a no-op check.
      if (local.NumClasses() < 2) continue;

      const uint64_t s = options.seed + static_cast<uint64_t>(held * 7 + k);
      OfflineStrategy off(offline_rf);
      LocalStrategy loc(local, s);
      UncertaintyStrategy unc(offline_rf, local, s + 1);
      NearestNeighborStrategy nn(offline_rf, local, s + 2);
      MetaModelStrategy meta(offline_rf, local, s + 3);
      auto* hybrid = dynamic_cast<HybridDnnClassifier*>(offline_hybrid.get());
      TransferHybridStrategy transfer(hybrid, local);

      const AdaptiveStrategy* strategies[] = {&off, &loc, &unc,
                                              &nn,  &meta, &transfer};
      for (int si = 0; si < 6; ++si) {
        agg[static_cast<size_t>(si)][ki].Merge(EvaluateStrategy(
            data, split.test, builder, *strategies[si], labeler));
      }
    }
  }

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"strategy", "k=2", "k=4", "k=8"});
  for (int si = 0; si < 6; ++si) {
    std::vector<std::string> row = {names[si]};
    for (size_t ki = 0; ki < 3; ++ki) {
      row.push_back(F3(RegressionF1(agg[static_cast<size_t>(si)][ki])));
    }
    rows.push_back(std::move(row));
  }
  PrintTable(
      "Figure 10 — adaptive strategies on a held-out database vs. leaked "
      "plans per query (regression-class F1):",
      rows);
  std::printf(
      "\nExpected shape: every lightweight adaptive beats Offline from "
      "k=2; Meta is competitive with or better than Local; HybridDNN "
      "transfer lags the tree-based adaptives; F1 rises with k.\n");
  return 0;
}
