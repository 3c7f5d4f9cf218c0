#ifndef AIMAI_TUNER_COMPARATOR_H_
#define AIMAI_TUNER_COMPARATOR_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "featurize/feature_cache.h"
#include "featurize/pair_featurizer.h"
#include "ml/model.h"
#include "models/labeler.h"

namespace aimai {

class ThreadPool;

/// A (current, candidate) plan pair the tuner is about to ask a
/// comparator about. Non-owning: the tuner keeps the plans alive for the
/// duration of the round.
struct PlanPairView {
  const PhysicalPlan* p1 = nullptr;
  const PhysicalPlan* p2 = nullptr;
};

/// Observer of ModelComparator label decisions: lets the service's
/// learning loop see every decision — scalar and batched — and join the
/// predicted labels against the ground truth measured executions reveal.
/// Fired once per distinct ordered pair (label-memo hits do not repeat);
/// implementations must be thread-safe (batched rounds fire from runner
/// threads while pool workers may resolve scalar labels).
class ComparatorDecisionSink {
 public:
  virtual ~ComparatorDecisionSink() = default;
  /// `h1`/`h2` are the pair's plan ContentHash()es (estimate-only, so a
  /// later measured execution of the same plan joins back to the
  /// decision); `label` is the predicted PairLabel.
  virtual void OnDecision(uint64_t h1, uint64_t h2, int label) = 0;
};

/// The cost-comparison oracle the index tuner consults (§5). Given the
/// plan under the current configuration (p1) and the plan under a
/// hypothetical configuration (p2), answers the two gating questions:
/// would p2 regress, and would p2 improve.
class CostComparator {
 public:
  virtual ~CostComparator() = default;

  /// Whether adopting p2 is predicted to regress the query.
  virtual bool IsRegression(const PhysicalPlan& p1,
                            const PhysicalPlan& p2) const = 0;

  /// Whether adopting p2 is predicted to significantly improve the query.
  virtual bool IsImprovement(const PhysicalPlan& p1,
                             const PhysicalPlan& p2) const = 0;

  /// Hint that the tuner is about to ask about `pairs` (candidate
  /// fan-out). Batched comparators featurize in parallel on `pool` and
  /// answer every pair with one model PredictBatch; the default is a
  /// no-op. Priming must never change an answer: subsequent
  /// IsRegression / IsImprovement calls return exactly what they would
  /// have returned without the hint (labels are pure functions of the
  /// pair). `pool` may be null (serial featurization).
  virtual void Prime(const std::vector<PlanPairView>& pairs,
                     ThreadPool* pool) const {
    (void)pairs;
    (void)pool;
  }
};

/// Decision thresholds shared by the estimate-driven comparators. Kept as
/// a struct (not loose doubles) so session/service options can carry and
/// validate them as one unit.
struct ComparatorOptions {
  /// Improvements must beat the current plan by this fraction.
  /// 0 reproduces the plain tuner ("Opt"); 0.2 the thresholded "OptTr".
  double improvement_threshold = 0.0;
  /// Regressions are flagged beyond (1 + regression_threshold) x.
  double regression_threshold = 0.0;
};

/// The classical tuner's comparator: trust the optimizer's estimated
/// total costs (see ComparatorOptions for the threshold semantics).
class OptimizerComparator : public CostComparator {
 public:
  explicit OptimizerComparator(const ComparatorOptions& options)
      : improvement_threshold_(options.improvement_threshold),
        regression_threshold_(options.regression_threshold) {}
  explicit OptimizerComparator(double improvement_threshold = 0.0,
                               double regression_threshold = 0.0)
      : improvement_threshold_(improvement_threshold),
        regression_threshold_(regression_threshold) {}

  bool IsRegression(const PhysicalPlan& p1,
                    const PhysicalPlan& p2) const override {
    return p2.est_total_cost > (1.0 + regression_threshold_) *
                                   p1.est_total_cost;
  }
  bool IsImprovement(const PhysicalPlan& p1,
                     const PhysicalPlan& p2) const override {
    return p2.est_total_cost < (1.0 - improvement_threshold_) *
                                   p1.est_total_cost;
  }

 private:
  double improvement_threshold_;
  double regression_threshold_;
};

/// The ML-augmented comparator (§5): a trained plan-pair Classifier (the
/// offline model or a §4.3 AdaptiveStrategy) gates regressions
/// (IsRegression: label == kRegression); on kUnsure the tuner falls back
/// to the optimizer's estimates, keeping the search making progress on
/// insignificant differences.
///
/// Labels are memoized per ordered pair of plan ContentHash()es, and the
/// comparator honors Prime: when the tuner announces a round's candidate
/// fan-out, it featurizes every fresh pair in parallel, runs ONE
/// PredictBatch over the flattened feature matrix, and memoizes the
/// labels. The serial decision replay then reduces to hash lookups.
///
/// Bit-identity: PredictBatch is bit-identical to the scalar path by the
/// Classifier contract, and labels are pure functions of the pair, so a
/// primed run answers exactly like an unprimed (scalar) run.
///
/// Thread-safe; both memos are bounded FIFO of
/// PairFeatureCache::kDefaultCapacity entries (the feature cache mirrors
/// the what-if cache design and feeds `featurize.cache_{hits,evictions}`).
class ModelComparator : public CostComparator {
 public:
  ModelComparator(std::shared_ptr<const Classifier> classifier,
                  PairFeaturizer featurizer);

  bool IsRegression(const PhysicalPlan& p1,
                    const PhysicalPlan& p2) const override;
  bool IsImprovement(const PhysicalPlan& p1,
                     const PhysicalPlan& p2) const override;
  void Prime(const std::vector<PlanPairView>& pairs,
             ThreadPool* pool) const override;

  /// Predicted PairLabel for the ordered pair (memoized).
  int Label(const PhysicalPlan& p1, const PhysicalPlan& p2) const;

  /// Pairs labeled through the batched path (diagnostics / tests).
  int64_t num_batched_labels() const;
  /// Label-memo hits (decisions answered without touching the model).
  int64_t num_label_hits() const;

  /// Observer of every fresh label this comparator produces (scalar and
  /// batched paths alike). Must outlive the comparator; nullptr (the
  /// default) disables. Set before the comparator is shared.
  void set_decision_sink(ComparatorDecisionSink* sink) { sink_ = sink; }

 private:
  using Key = std::pair<uint64_t, uint64_t>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.first * 1099511628211ULL ^ k.second);
    }
  };

  /// Memoized scalar label for a key whose pair is at hand.
  int LabelForKey(const Key& key, const PhysicalPlan& p1,
                  const PhysicalPlan& p2) const;
  /// Caller must hold labels_mu_.
  void StoreLabelLocked(const Key& key, int label) const;

  std::shared_ptr<const Classifier> classifier_;
  PairFeaturizer featurizer_;
  ComparatorDecisionSink* sink_ = nullptr;
  mutable PairFeatureCache features_;
  mutable std::mutex labels_mu_;
  mutable std::unordered_map<Key, int, KeyHash> labels_;
  mutable std::deque<Key> label_fifo_;
  mutable int64_t num_batched_labels_ = 0;
  mutable int64_t num_label_hits_ = 0;
};

}  // namespace aimai

#endif  // AIMAI_TUNER_COMPARATOR_H_
