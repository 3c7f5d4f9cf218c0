#ifndef AIMAI_STORAGE_DATA_GENERATOR_H_
#define AIMAI_STORAGE_DATA_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "storage/table.h"

namespace aimai {

/// Column-filling primitives used by the workload generators. Every filler
/// appends exactly `n` values to `col`.
///
/// The distributions deliberately include the cases where textbook
/// cardinality estimation goes wrong — Zipf skew breaks the uniformity
/// assumption and `FillCorrelatedInt` breaks the independence assumption —
/// because the paper's premise (Fig. 1) is that the optimizer's estimates
/// are unreliable on real data.
class DataGenerator {
 public:
  explicit DataGenerator(Rng rng) : rng_(rng) {}

  /// Dense primary key 0..n-1.
  void FillSequentialInt(Column* col, size_t n);

  /// Uniform integers in [lo, hi].
  void FillUniformInt(Column* col, size_t n, int64_t lo, int64_t hi);

  /// Zipf-skewed integers over domain [lo, lo+domain-1]; skew s.
  void FillZipfInt(Column* col, size_t n, int64_t lo, int64_t domain,
                   double s);

  /// Foreign key into a parent of `parent_rows` rows; zipf-skewed when
  /// s > 0 (a few parents own most children).
  void FillForeignKey(Column* col, size_t n, int64_t parent_rows, double s);

  /// Uniform doubles in [lo, hi).
  void FillUniformDouble(Column* col, size_t n, double lo, double hi);

  /// Integer column correlated with an existing int column of the same
  /// table: value = slope * src + noise. Breaks independence assumptions
  /// when both columns are filtered.
  void FillCorrelatedInt(Column* col, const Column& src, size_t n,
                         double slope, int64_t noise);

  /// String column from a generated vocabulary of `vocab` distinct words,
  /// drawn zipf-skewed with parameter s (0 = uniform).
  void FillDictString(Column* col, size_t n, int64_t vocab, double s,
                      const std::string& prefix);

  /// String column rank-correlated with an existing numeric column and
  /// with a Zipf-skewed marginal: codes are drawn Zipf(vocab, s), sorted,
  /// and assigned in `src` order (plus a small random flip probability).
  /// Two optimizer traps at once: the heavy code's frequency is badly
  /// underestimated by the 1/NDV point rule, and when `src` is a primary
  /// key that skewed foreign keys concentrate on, filters on this
  /// attribute select exactly the join-heavy rows, breaking the
  /// independence assumption between dimension filters and join skew.
  void FillBucketCorrelatedDict(Column* col, const Column& src, size_t n,
                                int64_t vocab, double zipf_s,
                                double flip_probability,
                                const std::string& prefix);

  /// Date column: int day numbers in [base, base+span), uniform.
  void FillDateInt(Column* col, size_t n, int64_t base, int64_t span);

  Rng* rng() { return &rng_; }

 private:
  Rng rng_;
};

/// A deterministic multi-column fill schedule for the scale-factor
/// generators. Fill tasks are registered in a fixed order; each `Add`
/// draws an independent child stream from the plan's base generator via
/// `Rng::Split()` at *registration* time, so a task's randomness depends
/// only on its registration position — never on which worker thread runs
/// it or in what order the pool schedules tasks. Running the plan over a
/// ThreadPool is therefore bit-identical to running it serially.
///
/// `Barrier()` separates stages: a fill that reads another column (the
/// correlated fills) must be registered after a barrier that follows its
/// source column's fill. Tasks within a stage run concurrently, one task
/// per column, which is the natural parallel grain of a columnar build —
/// each task owns its column and streams values into it chunk by chunk.
class TableFillPlan {
 public:
  explicit TableFillPlan(uint64_t seed) : base_(seed) {}

  /// Registers a fill task for the current stage. The callback receives a
  /// DataGenerator seeded from the plan's stream.
  void Add(std::function<void(DataGenerator*)> fill);

  /// Ends the current stage: tasks registered after this only start once
  /// every earlier task has finished.
  void Barrier();

  /// Runs all registered tasks stage by stage; fans out over `pool` when
  /// it offers real parallelism, runs inline otherwise. Clears the plan.
  void Run(ThreadPool* pool);

  size_t num_tasks() const { return tasks_.size(); }

 private:
  struct Task {
    Rng rng;
    std::function<void(DataGenerator*)> fill;
    size_t stage;
  };

  Rng base_;
  size_t stage_ = 0;
  std::vector<Task> tasks_;
};

}  // namespace aimai

#endif  // AIMAI_STORAGE_DATA_GENERATOR_H_
