#ifndef AIMAI_COMMON_RANDOM_H_
#define AIMAI_COMMON_RANDOM_H_

#include <cstdint>
#include <random>
#include <vector>

namespace aimai {

/// Seeded random number generator used everywhere in the library so that
/// data generation, model training, and experiments are reproducible.
///
/// Wraps a 64-bit Mersenne Twister and adds the distributions the
/// workload generators and ML models need (Gaussian, choice, shuffle;
/// Zipf is `ZipfSampler` below). A `Rng` can be `Split()` into an
/// independent child stream, which keeps parallel components decoupled
/// from each other's draw order.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi);

  /// Uniform double in [lo, hi).
  double Uniform(double lo = 0.0, double hi = 1.0);

  /// Standard normal scaled by (mean, stddev).
  double Gaussian(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli draw with probability `p` of true.
  bool Bernoulli(double p);

  /// Returns an independent generator derived from this one.
  Rng Split();

  /// Picks a uniformly random element index from [0, n).
  size_t Index(size_t n);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = Index(i + 1);
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k <= n), in random order.
  /// Costs O(k) when k is much smaller than n (Floyd's algorithm) and
  /// O(n) otherwise (partial Fisher-Yates) — never materializes the full
  /// index range for sparse draws, which matters when parameter sampling
  /// hits multi-million-row tables.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);
  /// Same draws and result, written into `out` (its capacity is reused).
  void SampleWithoutReplacement(size_t n, size_t k, std::vector<size_t>* out);

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

/// Zipf-distributed integers in [1, n] with skew parameter `s` (s <= 0 is
/// uniform; s around 1 is the classic heavy skew used for "TPC-H Zipf"),
/// by rejection-inversion sampling (Hormann & Derflinger), so large `n`
/// is cheap.
///
/// Build one per fill: the `(n, s)` constants are computed once here. A
/// draw consumes the same `Uniform()` values in the same order and
/// evaluates the same expressions as computing everything per draw, so
/// the values and the generator state left behind are bit-identical to
/// that (DESIGN.md, determinism contract).
class ZipfSampler {
 public:
  ZipfSampler(int64_t n, double s);

  int64_t Draw(Rng* rng) const;

 private:
  double HIntegral(double x) const;
  double HIntegralInv(double x) const;
  double H(double x) const;

  int64_t n_;
  double s_;
  bool log_form_;  // s == 1 (to 1e-12): the integral is a plain log.
  double h_x1_ = 0;
  double h_n_ = 0;
  double s_shift_ = 0;
};

}  // namespace aimai

#endif  // AIMAI_COMMON_RANDOM_H_
