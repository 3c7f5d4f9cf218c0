#ifndef AIMAI_COMMON_RANDOM_H_
#define AIMAI_COMMON_RANDOM_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

#include "common/check.h"

namespace aimai {

/// The 64-bit Mersenne Twister: for every integer seed, output for output
/// the sequence of `std::mt19937_64` (the standard's seeding recurrence and
/// tempering; only the twist is written branch-free). It meets the
/// UniformRandomBitGenerator requirements, so the std distributions run on
/// it unchanged.
class Mt19937_64 {
 public:
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  explicit Mt19937_64(uint64_t seed);

  result_type operator()() {
    if (pos_ >= kStateSize) Twist();
    uint64_t z = state_[pos_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr size_t kStateSize = 312;

  /// Regenerates all `kStateSize` words and rewinds `pos_`.
  void Twist();

  uint64_t state_[kStateSize];
  size_t pos_;
};

/// The [0, 1) double libstdc++'s `generate_canonical<double, 53>` makes
/// from one 64-bit engine output `bits`: `double(bits) * 2^-64`, clamped
/// below 1. `double(bits)` is computed from its two 32-bit halves — both
/// exact, one rounding add — which equals the hardware's branchy unsigned
/// conversion bit for bit.
inline double CanonicalDouble(uint64_t bits) {
  const double value =
      static_cast<double>(static_cast<uint32_t>(bits >> 32)) * 0x1p32 +
      static_cast<double>(static_cast<uint32_t>(bits));
  // Only words of at least 2^64 - 2^10 round to 2^64, that is to 1.0.
  return std::min(value * 0x1p-64, 0x1.fffffffffffffp-1);
}

/// Seeded random number generator used everywhere in the library so that
/// data generation, model training, and experiments are reproducible.
///
/// Wraps a 64-bit Mersenne Twister and adds the distributions the
/// workload generators and ML models need (Gaussian, choice, shuffle;
/// Zipf is `ZipfSampler` below). Every draw returns what the matching
/// libstdc++ distribution over `std::mt19937_64` returns (pinned by
/// `RngOracleTest`). A `Rng` can be `Split()` into an independent child
/// stream, which keeps parallel components decoupled from each other's
/// draw order.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    AIMAI_CHECK(lo <= hi);
    std::uniform_int_distribution<int64_t> dist(lo, hi);
    return dist(engine_);
  }

  /// Uniform double in [lo, hi) (`uniform_real_distribution`'s formula).
  double Uniform(double lo = 0.0, double hi = 1.0) {
    return CanonicalDouble(engine_()) * (hi - lo) + lo;
  }

  /// Standard normal scaled by (mean, stddev).
  double Gaussian(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli draw with probability `p` of true
  /// (`bernoulli_distribution`'s formula).
  bool Bernoulli(double p) { return CanonicalDouble(engine_()) < p; }

  /// Returns an independent generator derived from this one.
  Rng Split();

  /// Picks a uniformly random element index from [0, n).
  size_t Index(size_t n) {
    AIMAI_CHECK(n > 0);
    return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
  }

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

  Mt19937_64& engine() { return engine_; }

 private:
  Mt19937_64 engine_;
};

/// Zipf-distributed integers in [1, n] with skew parameter `s` (s <= 0 is
/// uniform; s around 1 is the classic heavy skew used for "TPC-H Zipf"),
/// by rejection-inversion sampling (Hormann & Derflinger), so large `n`
/// is cheap.
///
/// Build one per fill: the `(n, s)` constants are computed once here. A
/// draw consumes the same `Uniform()` values in the same order and
/// reaches the same outcome on every iteration as computing everything
/// per draw, so the values and the generator state left behind are
/// bit-identical to that (DESIGN.md, determinism contract).
///
/// For 0 < s < 1 a fill of at least `kMinGridDraws` draws also gets a
/// fast inverse: cubic interpolation of the closed-form `HIntegralInv`
/// on a uniform grid of `u`, with a per-interval guard derived from a
/// written error bound (interpolation error plus the closed form's own
/// rounding; see BuildFastInverse). An iteration whose interpolated `x`
/// lies farther than the guard from every boundary its outcome depends
/// on (k +- 0.5, k - s_shift) is decided from it; every other iteration
/// runs the closed form verbatim, which stays the definition. The grid
/// is sized from `draws`, the number of values the caller expects to
/// draw; that count never changes a value.
class ZipfSampler {
 public:
  /// Fills smaller than this draw every value through the closed form.
  static constexpr size_t kMinGridDraws = 1024;

  ZipfSampler(int64_t n, double s, size_t draws);

  int64_t Draw(Rng* rng) const;

  /// One rejection-inversion iteration at `u` (Draw's `u`, in
  /// [h_x1, h_n]): the candidate, whether it is accepted, and whether
  /// the fast inverse decided it. Draw loops over this; tests sweep it.
  struct Iteration {
    int64_t k;
    bool accept;
    bool fast;
  };
  Iteration Iterate(double u) const;

 private:
  /// Cubic in `t`, the position inside one grid interval, plus the guard
  /// band (in units of x) its value must clear to decide an iteration.
  struct Cubic {
    double c0, c1, c2, c3, guard;
  };

  double HIntegral(double x) const;
  double HIntegralInv(double x) const;
  double H(double x) const;
  void BuildFastInverse(size_t draws);

  int64_t n_;
  double s_;
  bool log_form_;  // s == 1 (to 1e-12): the integral is a plain log.
  double h_x1_ = 0;
  double h_n_ = 0;
  double s_shift_ = 0;
  double grid_lo_ = 0;
  double grid_inv_h_ = 0;
  std::vector<Cubic> grid_;  // Empty: every iteration is closed form.
};

}  // namespace aimai

#endif  // AIMAI_COMMON_RANDOM_H_
