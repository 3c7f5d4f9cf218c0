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

ZipfSampler::ZipfSampler(int64_t n, double s)
    : n_(n), s_(s), log_form_(std::abs(1.0 - s) < 1e-12) {
  AIMAI_CHECK(n >= 1);
  if (s <= 0.0) return;
  h_x1_ = HIntegral(1.5) - 1.0;
  h_n_ = HIntegral(static_cast<double>(n) + 0.5);
  s_shift_ = 2.0 - HIntegralInv(HIntegral(2.5) - H(2.0));
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

int64_t ZipfSampler::Draw(Rng* rng) const {
  if (s_ <= 0.0) return rng->UniformInt(1, n_);
  const double n = static_cast<double>(n_);
  while (true) {
    const double u = h_n_ + rng->Uniform() * (h_x1_ - h_n_);
    const double x = HIntegralInv(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    if (k > n) k = n;
    if (k - x <= s_shift_ || u >= HIntegral(k + 0.5) - H(k)) {
      return static_cast<int64_t>(k);
    }
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
