// Unit tests for common/: RNG distributions, statistics, strings.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>
#include <map>
#include <random>
#include <unordered_set>

#include "common/random.h"
#include "common/stats.h"
#include "common/string_util.h"

namespace aimai {
namespace {

TEST(RngTest, UniformIntRespectsBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(2);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(rng.UniformInt(5, 5), 5);
  }
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, SplitDecorrelates) {
  Rng a(42);
  Rng child = a.Split();
  Rng b(42);
  b.Split();
  const auto parent_next = a.UniformInt(0, 1 << 30);
  // Splitting is deterministic: the same parent seed takes the same path.
  EXPECT_EQ(b.UniformInt(0, 1 << 30), parent_next);
  // Child stream differs from what the parent would produce next.
  EXPECT_NE(child.UniformInt(0, 1 << 30), parent_next);
}

TEST(RngTest, ZipfIsSkewedAndBounded) {
  Rng rng(7);
  ZipfSampler zipf(100, 1.0, 20000);
  std::map<int64_t, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const int64_t v = zipf.Draw(&rng);
    ASSERT_GE(v, 1);
    ASSERT_LE(v, 100);
    counts[v]++;
  }
  // Rank 1 should be far more frequent than rank 50.
  EXPECT_GT(counts[1], 10 * std::max(1, counts[50]));
  // Harmonic shape: P(1)/P(2) ~ 2 for s=1.
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], 2.0, 0.5);
}

TEST(RngTest, ZipfZeroSkewIsUniformish) {
  Rng rng(7);
  ZipfSampler zipf(10, 0.0, 30000);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 30000; ++i) counts[zipf.Draw(&rng)]++;
  for (int64_t v = 1; v <= 10; ++v) {
    EXPECT_NEAR(counts[v], 3000, 450) << "value " << v;
  }
}

TEST(RngTest, SampleWithoutReplacementIsDistinct) {
  Rng rng(3);
  const std::vector<size_t> s = rng.SampleWithoutReplacement(50, 20);
  EXPECT_EQ(s.size(), 20u);
  std::vector<size_t> sorted = s;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  for (size_t v : s) EXPECT_LT(v, 50u);
}

// k << n takes the O(k) Floyd path instead of materializing all n
// indices; it must honor the same contract as the Fisher-Yates path.
TEST(RngTest, SampleWithoutReplacementFloydPathIsDistinct) {
  Rng rng(3);
  constexpr size_t kN = 1'000'000, kK = 64;
  const std::vector<size_t> s = rng.SampleWithoutReplacement(kN, kK);
  EXPECT_EQ(s.size(), kK);
  std::vector<size_t> sorted = s;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
              sorted.end());
  for (size_t v : s) EXPECT_LT(v, kN);
  // Deterministic for a fixed seed.
  Rng rng2(3);
  EXPECT_EQ(rng2.SampleWithoutReplacement(kN, kK), s);
  // Edge cases around the algorithm switch.
  Rng rng3(4);
  EXPECT_TRUE(rng3.SampleWithoutReplacement(kN, 0).empty());
  const std::vector<size_t> full = rng3.SampleWithoutReplacement(8, 8);
  std::vector<size_t> fs = full;
  std::sort(fs.begin(), fs.end());
  EXPECT_EQ(fs, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

// Both algorithms must draw (approximately) uniform inclusion
// probabilities: every index is in the sample with probability k/n.
TEST(RngTest, SampleWithoutReplacementPathsAreUniform) {
  const auto inclusion_counts = [](size_t n, size_t k, uint64_t seed,
                                   int trials) {
    Rng rng(seed);
    std::vector<int> counts(n, 0);
    for (int t = 0; t < trials; ++t) {
      for (size_t v : rng.SampleWithoutReplacement(n, k)) ++counts[v];
    }
    return counts;
  };
  // Fisher-Yates path (n < 1024): expect trials * k/n = 600 inclusions
  // per index (sd ~22; bound ~5.5 sd, generous for 100 cells).
  for (int c : inclusion_counts(100, 20, 11, 3000)) {
    EXPECT_NEAR(c, 600, 120);
  }
  // Floyd path (k << n): expect 4000 * 16/2048 = 31.25 inclusions per
  // index (sd ~5.6). The expected *max* over 2048 cells is ~4.5 sd, so
  // the per-cell bound must sit well above that: ~7 sd.
  for (int c : inclusion_counts(2048, 16, 12, 4000)) {
    EXPECT_NEAR(c, 31.25, 40);
  }
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(4);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// The in-house engine and inline draws against libstdc++'s distributions
// over std::mt19937_64, the reference every generated table and golden pin
// was recorded with: same values, bit for bit, and the same engine state.

static_assert(std::uniform_random_bit_generator<Mt19937_64>);

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(RngOracleTest, EngineMatchesStdMt19937_64) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (const uint64_t seed :
       {uint64_t{0}, uint64_t{1}, uint64_t{42}, uint64_t{5489},
        uint64_t{1} << 63, kMax}) {
    Mt19937_64 got(seed);
    std::mt19937_64 want(seed);
    int mismatches = 0;
    for (int i = 0; i < 1'000'000; ++i) mismatches += got() != want();
    EXPECT_EQ(mismatches, 0) << "seed " << seed;
  }
  // The standard's own check: the 10000th output of a default-seeded
  // (5489) mt19937_64.
  Mt19937_64 standard(5489);
  for (int i = 1; i < 10000; ++i) standard();
  EXPECT_EQ(standard(), 9981545732273789042ULL);
}

// Returns one fixed word, for feeding generate_canonical chosen bits.
struct FixedBits {
  using result_type = uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }
  result_type operator()() { return bits; }
  uint64_t bits;
};

double StdCanonical(uint64_t bits) {
  FixedBits g{bits};
  return std::generate_canonical<double, 53>(g);
}

TEST(RngOracleTest, CanonicalDoubleMatchesGenerateCanonical) {
  constexpr uint64_t k53 = uint64_t{1} << 53;
  constexpr uint64_t k63 = uint64_t{1} << 63;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  // Exact values, rounding ties in both directions at the top binade
  // (one ulp there is 2^11), and the words that round to 2^64.
  for (const uint64_t bits :
       {uint64_t{0}, uint64_t{1}, k53 - 1, k53 + 1, k63, k63 + (1 << 10),
        k63 + (1 << 10) + 1, k63 + 3 * (1 << 10), kMax - (1 << 10) + 1,
        kMax}) {
    EXPECT_EQ(Bits(CanonicalDouble(bits)), Bits(StdCanonical(bits)))
        << "bits " << bits;
  }
  EXPECT_EQ(CanonicalDouble(kMax), std::nextafter(1.0, 0.0));
  std::mt19937_64 words(3);
  int mismatches = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    const uint64_t bits = words();
    mismatches += Bits(CanonicalDouble(bits)) != Bits(StdCanonical(bits));
  }
  EXPECT_EQ(mismatches, 0);
}

// Test-local copies of the sampling algorithms, drawing from the std
// distributions directly.
int64_t StdInt(std::mt19937_64& g, int64_t lo, int64_t hi) {
  return std::uniform_int_distribution<int64_t>(lo, hi)(g);
}

template <typename T>
void StdShuffle(std::mt19937_64& g, std::vector<T>* v) {
  if (v->empty()) return;
  for (size_t i = v->size() - 1; i > 0; --i) {
    std::swap((*v)[i], (*v)[static_cast<size_t>(
                           StdInt(g, 0, static_cast<int64_t>(i)))]);
  }
}

std::vector<size_t> StdSample(std::mt19937_64& g, size_t n, size_t k) {
  std::vector<size_t> out;
  if (n >= 1024 && k <= n / 64) {
    std::unordered_set<size_t> chosen;
    for (size_t i = n - k; i < n; ++i) {
      const size_t j =
          static_cast<size_t>(StdInt(g, 0, static_cast<int64_t>(i)));
      if (chosen.insert(j).second) {
        out.push_back(j);
      } else {
        chosen.insert(i);
        out.push_back(i);
      }
    }
    StdShuffle(g, &out);
    return out;
  }
  for (size_t i = 0; i < n; ++i) out.push_back(i);
  for (size_t i = 0; i < k; ++i) {
    const int64_t offset = StdInt(g, 0, static_cast<int64_t>(n - i) - 1);
    std::swap(out[i], out[i + static_cast<size_t>(offset)]);
  }
  out.resize(k);
  return out;
}

TEST(RngOracleTest, EveryDrawMatchesTheStdDistributions) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t k32 = int64_t{1} << 32;
  for (const uint64_t seed : {uint64_t{7}, uint64_t{5489}}) {
    Rng rng(seed);
    std::mt19937_64 want(seed);
    const auto real = [&want](double lo, double hi) {
      return Bits(std::uniform_real_distribution<double>(lo, hi)(want));
    };
    for (int i = 0; i < 20000; ++i) {
      ASSERT_EQ(Bits(rng.Uniform()), real(0.0, 1.0));
      ASSERT_EQ(Bits(rng.Uniform(-7.25, 3.5)), real(-7.25, 3.5));
      ASSERT_EQ(Bits(rng.Uniform(-1e6, -2.0)), real(-1e6, -2.0));
      ASSERT_EQ(Bits(rng.Uniform(4.0, 4.0)), real(4.0, 4.0));
      ASSERT_EQ(rng.UniformInt(5, 5), StdInt(want, 5, 5));
      ASSERT_EQ(rng.UniformInt(kMin, kMax), StdInt(want, kMin, kMax));
      ASSERT_EQ(rng.UniformInt(-3, 7), StdInt(want, -3, 7));
      for (const int64_t span : {k32 - 1, k32, k32 + 1}) {
        ASSERT_EQ(rng.UniformInt(-9, span - 10), StdInt(want, -9, span - 10));
      }
      for (const double p : {0.0, 1.0, 0.4}) {
        ASSERT_EQ(rng.Bernoulli(p), std::bernoulli_distribution(p)(want));
      }
      ASSERT_EQ(Bits(rng.Gaussian()),
                Bits(std::normal_distribution<double>(0.0, 1.0)(want)));
      ASSERT_EQ(Bits(rng.Gaussian(3.0, 0.5)),
                Bits(std::normal_distribution<double>(3.0, 0.5)(want)));
      ASSERT_EQ(rng.Index(1), static_cast<size_t>(StdInt(want, 0, 0)));
      ASSERT_EQ(rng.Index(17), static_cast<size_t>(StdInt(want, 0, 16)));
    }
    std::vector<int> shuffled(64), expected(64);
    for (int i = 0; i < 64; ++i) shuffled[i] = expected[i] = i;
    rng.Shuffle(&shuffled);
    StdShuffle(want, &expected);
    EXPECT_EQ(shuffled, expected);
    // The partial Fisher-Yates path, then Floyd's (k <= n / 64).
    EXPECT_EQ(rng.SampleWithoutReplacement(300, 40), StdSample(want, 300, 40));
    EXPECT_EQ(rng.SampleWithoutReplacement(100000, 500),
              StdSample(want, 100000, 500));
    // Split seeds the child from one parent output.
    Rng child = rng.Split();
    std::mt19937_64 want_child(want() ^ 0x9e3779b97f4a7c15ULL);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(child.engine()(), want_child());
    }
    // The engines are still in step.
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.engine()(), want());
  }
}

TEST(StatsTest, MedianOddEven) {
  EXPECT_DOUBLE_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(Median({5.0}), 5.0);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {0, 10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 40);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 20);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 10);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.125), 5.0);
}

TEST(StatsTest, MeanVarianceStddev) {
  const std::vector<double> v = {2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_NEAR(Variance(v), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(Stddev(v), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(StatsTest, RunningStatsMatchesBatch) {
  const std::vector<double> v = {1.5, -2, 3.25, 8, 0.5};
  RunningStats rs;
  for (double x : v) rs.Add(x);
  EXPECT_EQ(rs.count(), v.size());
  EXPECT_NEAR(rs.mean(), Mean(v), 1e-12);
  EXPECT_NEAR(rs.variance(), Variance(v), 1e-12);
}

TEST(StatsTest, HarmonicMean2) {
  EXPECT_DOUBLE_EQ(HarmonicMean2(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(HarmonicMean2(0.0, 0.5), 0.0);
  EXPECT_NEAR(HarmonicMean2(0.5, 1.0), 2.0 / 3.0, 1e-12);
}

TEST(StatsTest, ClampAndGeomMean) {
  EXPECT_DOUBLE_EQ(Clamp(5, 0, 3), 3);
  EXPECT_DOUBLE_EQ(Clamp(-1, 0, 3), 0);
  EXPECT_DOUBLE_EQ(Clamp(2, 0, 3), 2);
  EXPECT_NEAR(GeometricMean({1.0, 4.0}), 2.0, 1e-12);
}

TEST(StringUtilTest, StrJoinAndFormat) {
  EXPECT_EQ(StrJoin({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(StrJoin({}, ","), "");
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(StringUtilTest, Padding) {
  EXPECT_EQ(PadRight("ab", 4), "ab  ");
  EXPECT_EQ(PadLeft("ab", 4), "  ab");
  EXPECT_EQ(PadRight("abcd", 2), "abcd");
}

TEST(StringUtilTest, RenderTableAligns) {
  const std::string t = RenderTable({{"h1", "header2"}, {"v", "x"}});
  // Header underlined, columns aligned to widest cell.
  EXPECT_NE(t.find("h1  header2"), std::string::npos);
  EXPECT_NE(t.find("--  -------"), std::string::npos);
}

}  // namespace
}  // namespace aimai
