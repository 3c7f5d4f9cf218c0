#include "tuner/continuous_tuner.h"

#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/stats.h"
#include "obs/obs.h"
#include "tuner/parallel.h"
#include "tuner/query_tuner.h"

namespace aimai {

namespace {

// Warms the what-if cache for every workload query under `config`. Pure
// optimizer calls — no fault injection, no execution — so the serial
// measurement loops that follow consume cached plans without their
// fault/retry accounting changing by a single ShouldFail() draw. A no-op
// when the fan-out would not actually parallelize (the serial path then
// performs exactly the calls it always did).
void PrefetchPlans(ThreadPool* tp, WhatIfOptimizer* what_if,
                   const std::vector<WorkloadQuery>& workload,
                   const Configuration& config) {
  if (!WouldParallelize(tp, workload.size())) return;
  TunerParallelFor(tp, workload.size(), [&](size_t i) {
    what_if->Optimize(workload[i].query, config);
  });
}

/// Writes `from`'s execution statistics into the content-equal tree `to`.
/// The est_* fields are already equal bit for bit (same ContentKey), so
/// the assignment changes only the actuals.
void CopyActuals(const PlanNode& from, PlanNode* to) {
  to->stats = from.stats;
  for (size_t i = 0; i < from.children.size(); ++i) {
    CopyActuals(*from.children[i], to->children[i].get());
  }
}

/// The memo entry holding an executed plan content-equal to `plan` under
/// `mode`, or nullptr.
const PhysicalPlan* FindExecuted(const TuningEnv::ExecutedMemo& memo,
                                 const PhysicalPlan& plan, uint64_t hash,
                                 ExecMode mode) {
  for (const TuningEnv::ExecutedEntry& e : memo.entries) {
    if (e.hash == hash && e.mode == mode &&
        e.plan->ContentKey() == plan.ContentKey()) {
      return e.plan.get();
    }
  }
  return nullptr;
}

}  // namespace

StatusOr<TuningEnv::Measurement> TuningEnv::TryExecuteAndMeasure(
    const QuerySpec& query, const Configuration& config) {
  if (what_if == nullptr || executor == nullptr || indexes == nullptr ||
      exec_cost == nullptr) {
    return Status::FailedPrecondition("TuningEnv is not fully wired");
  }
  AIMAI_SPAN("tuner.measure");
  AIMAI_COUNTER_INC("tuner.measurements");
  RetryPolicy policy(retry, noise_rng);

  // What-if optimization, retried across injected timeouts. The shared
  // handle pins the plan: ClearCache() or eviction between here and the
  // Clone() below can no longer free it out from under us.
  std::shared_ptr<const PhysicalPlan> optimized;
  const RetryPolicy::Outcome opt_outcome = policy.Run([&]() -> Status {
    if (faults != nullptr &&
        faults->ShouldFail(FaultPoint::kWhatIfTimeout)) {
      ++resilience.what_if_timeouts;
      return Status::DeadlineExceeded("what-if optimize timed out");
    }
    optimized = what_if->Optimize(query, config);
    return Status::Ok();
  });
  resilience.execution_retries += opt_outcome.attempts - 1;
  resilience.total_backoff_ms += opt_outcome.total_backoff_ms;
  if (!opt_outcome.status.ok()) {
    ++resilience.execution_failures;
    return opt_outcome.status;
  }

  // No index is built up front: the executor builds each index the plan
  // reads on first use, and a configuration's other indexes never are.
  Measurement out;
  out.plan = optimized->Clone();

  // A plan this query already executed has its actuals on file: the data,
  // the indexes and the engine are deterministic, so a re-run would write
  // the same ones.
  std::string query_fp = query.ContentFingerprint();
  if (query_fp != executed.query_fp || executor != executed.executor ||
      exec_cost != executed.exec_cost) {
    executed = ExecutedMemo{std::move(query_fp), executor, exec_cost, {}};
  }
  const uint64_t hash = out.plan->ContentHash();
  const PhysicalPlan* memo_hit =
      FindExecuted(executed, *out.plan, hash, executor->mode());

  // The execution itself, retried across injected failures. A memo hit
  // skips only the run: the fault draws, retries and backoff stay.
  const RetryPolicy::Outcome exec_outcome = policy.Run([&]() -> Status {
    ++resilience.execution_attempts;
    if (faults != nullptr &&
        faults->ShouldFail(FaultPoint::kQueryExecution)) {
      ++resilience.execution_faults;
      return Status::Unavailable("query execution failed");
    }
    if (memo_hit == nullptr) executor->Execute(out.plan.get());
    return Status::Ok();
  });
  resilience.execution_retries += exec_outcome.attempts - 1;
  resilience.total_backoff_ms += exec_outcome.total_backoff_ms;
  if (!exec_outcome.status.ok()) {
    ++resilience.execution_failures;
    return exec_outcome.status;
  }
  if (memo_hit != nullptr) {
    AIMAI_COUNTER_INC("tuner.measure.memo_hits");
    CopyActuals(*memo_hit->root, out.plan->root.get());
    out.plan->actual_total_cost = memo_hit->actual_total_cost;
  } else {
    exec_cost->ComputeActualCost(out.plan.get());
    executed.entries.push_back(
        {hash, executor->mode(), std::shared_ptr<const PhysicalPlan>(
                                     out.plan->Clone())});
  }

  // Cost sampling degrades instead of failing: a lost sample (a re-run
  // the platform killed) is dropped, a noisy-neighbor spike inflates one
  // sample, and the median is taken over whatever survived.
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(cost_samples));
  for (int s = 0; s < cost_samples; ++s) {
    const double cost = exec_cost->SampleNoisyCost(*out.plan, noise_rng);
    if (faults != nullptr) {
      if (faults->ShouldFail(FaultPoint::kQueryExecution)) {
        ++resilience.cost_samples_dropped;
        continue;
      }
      samples.push_back(
          cost * faults->SpikeFactor(FaultPoint::kCostNoiseSpike));
    } else {
      samples.push_back(cost);
    }
  }
  if (samples.empty()) {
    ++resilience.execution_failures;
    return Status::Unavailable("all cost samples lost");
  }
  out.samples_used = static_cast<int>(samples.size());
  if (out.samples_used < cost_samples) ++resilience.degraded_measurements;
  out.median_cost = Median(std::move(samples));
  return out;
}

TuningEnv::Measurement TuningEnv::ExecuteAndMeasure(
    const QuerySpec& query, const Configuration& config) {
  StatusOr<Measurement> m = TryExecuteAndMeasure(query, config);
  AIMAI_CHECK_MSG(m.ok(), m.status().message().c_str());
  return std::move(m).value();
}

int TuningEnv::Record(const QuerySpec& query, const Configuration& config,
                      Measurement measurement,
                      ExecutionDataRepository* repo) const {
  PlanFeaturizer featurizer(AllChannels());
  ExecutedPlan rec;
  rec.database_id = database_id;
  rec.db_name = db->name();
  rec.query_name = query.name;
  rec.template_hash = query.TemplateHash();
  rec.config_fp = config.Fingerprint();
  rec.exec_cost = measurement.median_cost;
  rec.est_cost = measurement.plan->est_total_cost;
  rec.features = featurizer.Featurize(*measurement.plan);
  rec.plan = std::move(measurement.plan);
  return repo->Add(std::move(rec));
}

void ContinuousTuner::VerifyRevert(const QuerySpec& query,
                                   const Configuration& restored,
                                   double expected_cost,
                                   double expected_est_cost) {
  StatusOr<TuningEnv::Measurement> v =
      env_->TryExecuteAndMeasure(query, restored);
  if (!v.ok()) {
    ++env_->resilience.revert_verification_failures;
    return;
  }
  // Same configuration => the optimizer must reproduce the same plan
  // (exact estimate match, deterministic), and the measured cost must be
  // back inside the regression band, with slack for sampling noise.
  const bool plan_restored =
      std::abs(v->plan->est_total_cost - expected_est_cost) <=
      1e-9 * std::max(1.0, std::abs(expected_est_cost));
  const bool cost_restored =
      v->median_cost <=
      (1.0 + options_.regression_threshold) * 1.5 * expected_cost;
  if (plan_restored && cost_restored) {
    ++env_->resilience.reverts_verified;
  } else {
    ++env_->resilience.revert_verification_failures;
  }
}

ContinuousTuner::QueryTrace ContinuousTuner::TraceFromState(
    const QuerySpec& query, const QueryState& state) {
  QueryTrace trace;
  trace.query_name = query.name;
  trace.completed = state.initialized;
  trace.initial_cost = state.initial_cost;
  trace.final_cost = state.current_cost;
  trace.final_config = state.current;
  trace.iterations = state.iterations;
  trace.regress_final = state.regress_final;
  trace.improve_cumulative =
      state.initialized && trace.final_cost <= trace.initial_cost;
  return trace;
}

ContinuousTuner::QueryTrace ContinuousTuner::TuneQuery(
    const QuerySpec& query, const Configuration& initial,
    const ComparatorFactory& comparator_factory,
    ExecutionDataRepository* repo, const AdaptHook& adapt_hook) {
  QueryState state;
  state.current = initial;
  return TuneQueryResumable(query, &state, comparator_factory, repo,
                            adapt_hook);
}

StatusOr<ContinuousTuner::QueryTrace> ContinuousTuner::TryTuneQuery(
    const QuerySpec& query, const Configuration& initial,
    const ComparatorFactory& comparator_factory,
    ExecutionDataRepository* repo, const AdaptHook& adapt_hook) {
  if (env_ == nullptr || env_->what_if == nullptr || candidates_ == nullptr) {
    return Status::FailedPrecondition("ContinuousTuner is not fully wired");
  }
  AIMAI_RETURN_IF_ERROR(env_->what_if->ValidateQuery(query));
  QueryState state;
  state.current = initial;
  QueryTrace trace = TuneQueryResumable(query, &state, comparator_factory,
                                        repo, adapt_hook);
  if (!state.finished && Cancelled(options_.cancel)) {
    return Status::Cancelled("continuous tuning cancelled at iteration " +
                             std::to_string(state.next_iteration));
  }
  return trace;
}

ContinuousTuner::QueryTrace ContinuousTuner::TuneQueryResumable(
    const QuerySpec& query, QueryState* state,
    const ComparatorFactory& comparator_factory,
    ExecutionDataRepository* repo, const AdaptHook& adapt_hook) {
  AIMAI_SPAN("tuner.continuous.query");

  if (!state->initialized && !state->finished) {
    StatusOr<TuningEnv::Measurement> baseline_or =
        env_->TryExecuteAndMeasure(query, state->current);
    if (!baseline_or.ok()) {
      // The query is unmeasurable even with retries; nothing to tune
      // against. Surface an empty-but-honest trace instead of aborting.
      state->finished = true;
      env_->resilience.PublishDeltaTo(&obs::Registry());
      return TraceFromState(query, *state);
    }
    TuningEnv::Measurement baseline = std::move(baseline_or).value();
    state->initial_cost = baseline.median_cost;
    state->current_cost = baseline.median_cost;
    state->current_est_cost = baseline.plan->est_total_cost;
    state->initialized = true;
    if (repo != nullptr) {
      env_->Record(query, state->current, std::move(baseline), repo);
    }
  }

  QueryLevelTuner::Options qopts;
  qopts.max_new_indexes = options_.max_indexes_per_iteration;
  qopts.storage_budget_bytes = options_.storage_budget_bytes;
  qopts.pool = options_.pool;
  qopts.cancel = options_.cancel;
  QueryLevelTuner tuner(env_->db, env_->what_if, candidates_, qopts);

  for (int it = state->next_iteration;
       !state->finished && it <= options_.iterations;
       it = state->next_iteration) {
    if (Cancelled(options_.cancel)) break;  // Resumable: state stays live.
    AIMAI_SPAN("tuner.continuous.iteration");
    AIMAI_COUNTER_INC("tuner.continuous.iterations");
    std::unique_ptr<CostComparator> comparator = comparator_factory();
    const QueryTuningResult rec =
        tuner.Tune(query, state->current, *comparator);
    if (Cancelled(options_.cancel)) break;  // Mid-round stop: iteration unspent.
    if (rec.new_indexes.empty()) {  // No recommendation available.
      state->finished = true;
      break;
    }
    state->next_iteration = it + 1;

    const std::string fp = rec.recommended.Fingerprint();
    if (state->quarantined.count(fp) > 0) {
      ++env_->resilience.quarantine_skips;
      IterationRecord ir;
      ir.iteration = it;
      ir.num_new_indexes = static_cast<int>(rec.new_indexes.size());
      ir.quarantined = true;
      state->iterations.push_back(ir);
      // An adaptive comparator may recommend differently next iteration;
      // a repeat of the same benched fingerprint means we are stuck.
      if (fp == state->last_skipped_fp) {
        state->finished = true;
        break;
      }
      state->last_skipped_fp = fp;
      continue;
    }

    StatusOr<TuningEnv::Measurement> m_or =
        env_->TryExecuteAndMeasure(query, rec.recommended);
    if (!m_or.ok()) {
      // Measurement lost to faults: the iteration is spent, the current
      // configuration stands, and the loop carries on.
      ++env_->resilience.failed_iterations;
      IterationRecord ir;
      ir.iteration = it;
      ir.num_new_indexes = static_cast<int>(rec.new_indexes.size());
      ir.failed = true;
      state->iterations.push_back(ir);
      continue;
    }
    TuningEnv::Measurement m = std::move(m_or).value();
    IterationRecord ir;
    ir.iteration = it;
    ir.num_new_indexes = static_cast<int>(rec.new_indexes.size());
    ir.measured_cost = m.median_cost;

    const bool regressed =
        m.median_cost >
        (1.0 + options_.regression_threshold) * state->current_cost;
    ir.regressed = regressed;
    state->regress_final = regressed;
    const double rec_est_cost = m.plan->est_total_cost;

    if (repo != nullptr) {
      env_->Record(query, rec.recommended, std::move(m), repo);
    }
    if (adapt_hook) adapt_hook();

    if (regressed) {
      // Revert: keep `current` (the regressed indexes are dropped).
      ++env_->resilience.reverts;
      if (++state->regression_counts[fp] >= options_.quarantine_after) {
        state->quarantined.insert(fp);
        ++env_->resilience.quarantined_recommendations;
      }
      if (options_.verify_reverts) {
        VerifyRevert(query, state->current, state->current_cost,
                     state->current_est_cost);
      }
      state->iterations.push_back(ir);
      if (options_.stop_on_regression) {
        state->finished = true;
        break;
      }
      continue;
    }
    state->current = rec.recommended;
    state->current_cost = ir.measured_cost;
    state->current_est_cost = rec_est_cost;
    state->iterations.push_back(ir);
  }
  if (state->next_iteration > options_.iterations) state->finished = true;

  QueryTrace trace = TraceFromState(query, *state);
  trace.improve_cumulative =
      trace.final_cost <=
      (1.0 - options_.regression_threshold) * trace.initial_cost;
  env_->resilience.PublishDeltaTo(&obs::Registry());
  return trace;
}

ContinuousTuner::WorkloadTrace ContinuousTuner::TuneWorkload(
    const std::vector<WorkloadQuery>& workload, const Configuration& initial,
    const ComparatorFactory& comparator_factory,
    ExecutionDataRepository* repo, const AdaptHook& adapt_hook) {
  AIMAI_SPAN("tuner.continuous.workload");
  WorkloadTrace trace;
  ThreadPool* tp = options_.pool != nullptr ? options_.pool : SharedPool();

  Configuration current = initial;
  std::vector<double> query_costs(workload.size(), 0.0);
  std::vector<double> query_est_costs(workload.size(), 0.0);
  double total = 0;
  PrefetchPlans(tp, env_->what_if, workload, current);
  for (size_t i = 0; i < workload.size(); ++i) {
    StatusOr<TuningEnv::Measurement> m_or =
        env_->TryExecuteAndMeasure(workload[i].query, current);
    if (!m_or.ok()) {
      // No baseline for this query; without it regressions cannot be
      // detected, so the whole run is not tunable.
      trace.completed = false;
      trace.final_config = current;
      env_->resilience.PublishDeltaTo(&obs::Registry());
      return trace;
    }
    TuningEnv::Measurement m = std::move(m_or).value();
    query_costs[i] = m.median_cost;
    query_est_costs[i] = m.plan->est_total_cost;
    total += workload[i].weight * m.median_cost;
    if (repo != nullptr) {
      env_->Record(workload[i].query, current, std::move(m), repo);
    }
  }
  trace.initial_cost = total;
  double current_cost = total;

  WorkloadLevelTuner::Options wopts;
  wopts.max_new_indexes = options_.max_indexes_per_iteration;
  wopts.storage_budget_bytes = options_.storage_budget_bytes;
  wopts.pool = options_.pool;
  wopts.cancel = options_.cancel;
  WorkloadLevelTuner tuner(env_->db, env_->what_if, candidates_, wopts);

  std::unordered_map<std::string, int> regression_counts;
  std::unordered_set<std::string> quarantined;
  std::string last_skipped_fp;

  for (int it = 1; it <= options_.iterations; ++it) {
    if (Cancelled(options_.cancel)) break;  // Stop at iteration boundary.
    AIMAI_SPAN("tuner.continuous.iteration");
    AIMAI_COUNTER_INC("tuner.continuous.iterations");
    std::unique_ptr<CostComparator> comparator = comparator_factory();
    const WorkloadTuningResult rec =
        tuner.Tune(workload, current, *comparator);
    if (Cancelled(options_.cancel)) break;
    if (rec.new_indexes.empty()) break;

    const std::string fp = rec.recommended.Fingerprint();
    if (quarantined.count(fp) > 0) {
      ++env_->resilience.quarantine_skips;
      IterationRecord ir;
      ir.iteration = it;
      ir.num_new_indexes = static_cast<int>(rec.new_indexes.size());
      ir.quarantined = true;
      trace.iterations.push_back(ir);
      if (fp == last_skipped_fp) break;
      last_skipped_fp = fp;
      continue;
    }

    // Measure every query under the recommendation. A failed measurement
    // fails the iteration (the recommendation is not adopted on partial
    // evidence), but not the run.
    std::vector<double> new_costs(workload.size(), 0.0);
    std::vector<double> new_est_costs(workload.size(), 0.0);
    double new_total = 0;
    bool any_regressed = false;
    bool any_failed = false;
    PrefetchPlans(tp, env_->what_if, workload, rec.recommended);
    for (size_t i = 0; i < workload.size(); ++i) {
      StatusOr<TuningEnv::Measurement> m_or =
          env_->TryExecuteAndMeasure(workload[i].query, rec.recommended);
      if (!m_or.ok()) {
        any_failed = true;
        break;
      }
      TuningEnv::Measurement m = std::move(m_or).value();
      new_costs[i] = m.median_cost;
      new_est_costs[i] = m.plan->est_total_cost;
      new_total += workload[i].weight * m.median_cost;
      if (m.median_cost >
          (1.0 + options_.regression_threshold) * query_costs[i]) {
        any_regressed = true;
      }
      if (repo != nullptr) {
        env_->Record(workload[i].query, rec.recommended, std::move(m), repo);
      }
    }
    if (any_failed) {
      ++env_->resilience.failed_iterations;
      IterationRecord ir;
      ir.iteration = it;
      ir.num_new_indexes = static_cast<int>(rec.new_indexes.size());
      ir.failed = true;
      trace.iterations.push_back(ir);
      continue;
    }
    if (adapt_hook) adapt_hook();

    IterationRecord ir;
    ir.iteration = it;
    ir.num_new_indexes = static_cast<int>(rec.new_indexes.size());
    ir.measured_cost = new_total;
    ir.regressed = any_regressed;
    trace.iterations.push_back(ir);

    if (any_regressed) {
      ++env_->resilience.reverts;
      if (++regression_counts[fp] >= options_.quarantine_after) {
        quarantined.insert(fp);
        ++env_->resilience.quarantined_recommendations;
      }
      if (options_.verify_reverts) {
        // The restored configuration must reproduce every query's
        // pre-regression plan (exact estimate match: same config => same
        // deterministic optimizer output).
        bool restored_ok = true;
        PrefetchPlans(tp, env_->what_if, workload, current);
        for (size_t i = 0; i < workload.size(); ++i) {
          const std::shared_ptr<const PhysicalPlan> restored =
              env_->what_if->Optimize(workload[i].query, current);
          if (std::abs(restored->est_total_cost - query_est_costs[i]) >
              1e-9 * std::max(1.0, std::abs(query_est_costs[i]))) {
            restored_ok = false;
            break;
          }
        }
        if (restored_ok) {
          ++env_->resilience.reverts_verified;
        } else {
          ++env_->resilience.revert_verification_failures;
        }
      }
      if (options_.stop_on_regression) break;
      continue;  // Revert to `current`.
    }
    current = rec.recommended;
    query_costs = std::move(new_costs);
    query_est_costs = std::move(new_est_costs);
    current_cost = new_total;
  }

  trace.final_cost = current_cost;
  trace.final_config = current;
  env_->resilience.PublishDeltaTo(&obs::Registry());
  return trace;
}

}  // namespace aimai
