#include "common/random.h"

#include <cmath>
#include <unordered_set>

#include "common/check.h"

namespace aimai {

int64_t Rng::UniformInt(int64_t lo, int64_t hi) {
  AIMAI_CHECK(lo <= hi);
  std::uniform_int_distribution<int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::Uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

double Rng::Gaussian(double mean, double stddev) {
  std::normal_distribution<double> dist(mean, stddev);
  return dist(engine_);
}

bool Rng::Bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(engine_);
}

Rng Rng::Split() {
  // Derive a child seed from the parent stream; golden-ratio increment
  // decorrelates consecutive splits.
  uint64_t child = engine_() ^ 0x9e3779b97f4a7c15ULL;
  return Rng(child);
}

size_t Rng::Index(size_t n) {
  AIMAI_CHECK(n > 0);
  return static_cast<size_t>(UniformInt(0, static_cast<int64_t>(n) - 1));
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
