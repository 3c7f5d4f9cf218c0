#include "common/random.h"

#include <cmath>
#include <unordered_set>

namespace aimai {

namespace {

// MT19937-64's parameters (the values `std::mt19937_64` names).
constexpr size_t kShift = 156;  // m
constexpr uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr uint64_t kUpperMask = ~uint64_t{0} << 31;  // The top w - r bits.
constexpr uint64_t kInitMultiplier = 6364136223846793005ULL;  // f

/// One twist step. `0 - (y & 1)` is all ones exactly when y is odd, so the
/// matrix is applied by a mask rather than a branch, which mispredicts on
/// every other word.
inline uint64_t TwistWord(uint64_t cur, uint64_t next, uint64_t far) {
  const uint64_t y = (cur & kUpperMask) | (next & ~kUpperMask);
  return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrixA);
}

}  // namespace

// The standard's integer seeding (mersenne_twister_engine::seed).
Mt19937_64::Mt19937_64(uint64_t seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateSize; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = kInitMultiplier * (prev ^ (prev >> 62)) + i;
  }
  pos_ = kStateSize;
}

void Mt19937_64::Twist() {
  constexpr size_t n = kStateSize;
  for (size_t i = 0; i < n - kShift; ++i) {
    state_[i] = TwistWord(state_[i], state_[i + 1], state_[i + kShift]);
  }
  for (size_t i = n - kShift; i < n - 1; ++i) {
    state_[i] = TwistWord(state_[i], state_[i + 1], state_[i + kShift - n]);
  }
  state_[n - 1] = TwistWord(state_[n - 1], state_[0], state_[kShift - 1]);
  pos_ = 0;
}

double Rng::Gaussian(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

Rng Rng::Split() {
  // Derive a child seed from the parent stream; golden-ratio increment
  // decorrelates consecutive splits.
  uint64_t child = engine_() ^ 0x9e3779b97f4a7c15ULL;
  return Rng(child);
}

ZipfSampler::ZipfSampler(int64_t n, double s, size_t draws)
    : n_(n), s_(s), log_form_(std::abs(1.0 - s) < 1e-12) {
  AIMAI_CHECK(n >= 1);
  if (s <= 0.0) return;
  h_x1_ = HIntegral(1.5) - 1.0;
  h_n_ = HIntegral(static_cast<double>(n) + 0.5);
  s_shift_ = 2.0 - HIntegralInv(HIntegral(2.5) - H(2.0));
  if (s < 1.0 && !log_form_) BuildFastInverse(draws);
}

double ZipfSampler::HIntegral(double x) const {
  const double log_x = std::log(x);
  if (log_form_) return log_x;
  return (std::exp((1.0 - s_) * log_x) - 1.0) / (1.0 - s_);
}

double ZipfSampler::HIntegralInv(double x) const {
  if (log_form_) return std::exp(x);
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;  // Guard against numerical round-off.
  return std::exp(std::log1p(t) / (1.0 - s_));
}

double ZipfSampler::H(double x) const { return std::exp(-s_ * std::log(x)); }

// Each interval's guard bounds |x~ - x|, where x~ is the interpolated value
// and x what the closed form returns at the same u. With c = 1 - s (as
// computed), f(u) = (1 + c u)^(1/c) is the exact inverse that the closed
// form rounds, w = 1 + c u and eps = 2^-53:
//
//  * Interpolation: |P - f| <= h^4 / 24 * max|prod (t - t_j)| * max|f''''|
//    over the stencil; the product is <= 9/16 on the centered nodes
//    (-1, 0, 1, 2) and <= 1 on the first interval's one-sided (0, 1, 2, 3).
//    f'''' = s (2s - 1) (3s - 2) w^(1/c - 4), so relative to f(u) it is at
//    most |s (2s - 1) (3s - 2)| / wb^4 * spread, where wb is w at the
//    stencil's lowest node and spread = exp(3h / wb) >= (1 + 3ch/w)^(1/c)
//    bounds f(xi) / f(u) for xi up to 3h above u.
//  * The closed form: t = u c rounds (|u| / w * eps relative in x); glibc's
//    log1p and exp are within 1 ulp (2 eps relative), allowed 2 ulps here,
//    which gives 4 eps |ln x| and 4 eps; the division by c rounds
//    (eps |ln x|). So E_c = eps (q + 5 L + 4), with L >= |ln x| and
//    q >= (|u| + |u_lo|) / w over the grid.
//  * Node values carry E_c plus their rounded positions (2 eps q), through
//    a Lebesgue constant <= 2, scaled by spread. The evaluation position
//    (u - u_lo) * (1 / h) rounds three times (4 eps q * spread through the
//    slope), and the coefficients and Horner's rule round at most 16 times
//    on terms of at most 4 spread f (64 eps spread).
//
// eps_i = E_int + E_c + spread (2 E_c + 8 eps q + 64 eps) bounds the
// relative error, and the guard is 4 eps_i times the node at the top of
// the interval, the largest x in it. The factor 4 covers f(u) <= (1 + E_c)
// times that node and the first-order expansions above, and keeps every
// margin above the one rounding of x + 0.5 and of d + s_shift in Iterate.
// The bound assumes glibc's log1p/exp accuracy, s < 1 and no FMA
// contraction (x86-64 without -march), as the determinism contract does
// (DESIGN.md 13).
void ZipfSampler::BuildFastInverse(size_t draws) {
  constexpr size_t kDrawsPerInterval = 16;
  constexpr size_t kMaxIntervals = 1024;
  constexpr double kEps = 0x1p-53;
  if (draws < kMinGridDraws) return;
  const size_t intervals = std::min(kMaxIntervals, draws / kDrawsPerInterval);
  const double c = 1.0 - s_;
  const double u_lo = h_x1_;
  const double h = (h_n_ - h_x1_) / static_cast<double>(intervals);
  const double w_lo = 1.0 + c * u_lo;  // 1.5^c - c >= 0.5.
  std::vector<double> y(intervals + 2);
  for (size_t j = 0; j < y.size(); ++j) {
    y[j] = HIntegralInv(u_lo + static_cast<double>(j) * h);
  }
  const double a_lo = std::abs(u_lo);
  const double b_hi = std::abs(h_n_) + h;
  const double q =
      std::min((a_lo + b_hi) / w_lo, 1.0 / c + 2.0 * a_lo / w_lo);
  const double big_l =
      std::max(std::abs(std::log(y.front())), std::abs(std::log(y.back())));
  const double e_c = kEps * (q + 5.0 * big_l + 4.0);
  const double c_s = std::abs(s_ * (2.0 * s_ - 1.0) * (3.0 * s_ - 2.0));
  const double h4 = h * h * h * h / 24.0;

  grid_.resize(intervals);
  for (size_t i = 0; i < intervals; ++i) {
    Cubic& cubic = grid_[i];
    double prod;
    double wb;
    if (i == 0) {
      const double d1 = y[1] - y[0];
      const double d2 = y[2] - 2.0 * y[1] + y[0];
      const double d3 = y[3] - 3.0 * y[2] + 3.0 * y[1] - y[0];
      cubic = {y[0], d1 - d2 / 2.0 + d3 / 3.0, (d2 - d3) / 2.0, d3 / 6.0, 0};
      prod = 1.0;
      wb = w_lo;
    } else {
      const double ym = y[i - 1], y0 = y[i], y1 = y[i + 1], y2 = y[i + 2];
      cubic = {y0, -ym / 3.0 - y0 / 2.0 + y1 - y2 / 6.0,
               ym / 2.0 - y0 + y1 / 2.0, (y2 - ym) / 6.0 + (y0 - y1) / 2.0,
               0};
      prod = 9.0 / 16.0;
      wb = 1.0 + c * (u_lo + static_cast<double>(i - 1) * h);
    }
    const double spread = std::exp(3.0 * h / wb);
    const double e_int = h4 * prod * c_s / (wb * wb * wb * wb) * spread;
    const double eps_i =
        e_int + e_c + spread * (2.0 * e_c + 8.0 * kEps * q + 64.0 * kEps);
    cubic.guard = 4.0 * eps_i * y[i + 1];
  }
  grid_lo_ = u_lo;
  grid_inv_h_ = 1.0 / h;
}

ZipfSampler::Iteration ZipfSampler::Iterate(double u) const {
  const double n = static_cast<double>(n_);
  if (!grid_.empty()) {
    const double pos = (u - grid_lo_) * grid_inv_h_;
    // pos < 0 or past the last interval happens only by rounding at the
    // ends of [h_x1, h_n]; those take the closed form.
    if (pos >= 0.0 && pos < static_cast<double>(grid_.size())) {
      const size_t i = static_cast<size_t>(pos);
      const Cubic& cubic = grid_[i];
      const double t = pos - static_cast<double>(i);
      const double x =
          cubic.c0 + t * (cubic.c1 + t * (cubic.c2 + t * cubic.c3));
      // Truncation is floor(x + 0.5) for x >= -0.5 (a negative x gives
      // k = 0, which falls back); d = x - k is exact.
      const double k = static_cast<double>(static_cast<int64_t>(x + 0.5));
      const double d = x - k;
      const double margin = d + s_shift_;  // s_shift - (k - x).
      if (d > cubic.guard - 0.5 && d < 0.5 - cubic.guard && k >= 1.0 &&
          k <= n && std::abs(margin) > cubic.guard) {
        return {static_cast<int64_t>(k),
                margin > 0.0 || u >= HIntegral(k + 0.5) - H(k), true};
      }
    }
  }
  const double x = HIntegralInv(u);
  double k = std::floor(x + 0.5);
  if (k < 1.0) k = 1.0;
  if (k > n) k = n;
  return {static_cast<int64_t>(k),
          k - x <= s_shift_ || u >= HIntegral(k + 0.5) - H(k), false};
}

int64_t ZipfSampler::Draw(Rng* rng) const {
  if (s_ <= 0.0) return rng->UniformInt(1, n_);
  while (true) {
    const double u = h_n_ + rng->Uniform() * (h_x1_ - h_n_);
    const Iteration it = Iterate(u);
    if (it.accept) return it.k;
  }
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  std::vector<size_t> out;
  SampleWithoutReplacement(n, k, &out);
  return out;
}

void Rng::SampleWithoutReplacement(size_t n, size_t k,
                                   std::vector<size_t>* out) {
  AIMAI_CHECK(k <= n);
  out->clear();
  if (k == 0) return;
  // Floyd's algorithm for sparse draws: O(k) time and space instead of
  // materializing an O(n) index vector (48MB per call at n = 6M). The
  // n/k guard keeps the draw stream of every dense call site unchanged.
  if (n >= 1024 && k <= n / 64) {
    std::unordered_set<size_t> chosen;
    chosen.reserve(2 * k);
    out->reserve(k);
    for (size_t i = n - k; i < n; ++i) {
      const size_t j =
          static_cast<size_t>(UniformInt(0, static_cast<int64_t>(i)));
      if (chosen.insert(j).second) {
        out->push_back(j);
      } else {
        chosen.insert(i);
        out->push_back(i);
      }
    }
    // Floyd yields a uniform k-subset but an order biased by insertion;
    // shuffling restores the uniform ordered-sequence distribution the
    // Fisher-Yates path produces.
    Shuffle(out);
    return;
  }
  std::vector<size_t>& all = *out;
  all.resize(n);
  for (size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: only the first k positions need to be shuffled.
  for (size_t i = 0; i < k; ++i) {
    size_t j = i + Index(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
}

}  // namespace aimai
