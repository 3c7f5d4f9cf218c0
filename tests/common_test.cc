// Unit tests for common/: RNG distributions, statistics, strings.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>

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
  std::map<int64_t, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const int64_t v = rng.Zipf(100, 1.0);
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
  std::map<int64_t, int> counts;
  for (int i = 0; i < 30000; ++i) counts[rng.Zipf(10, 0.0)]++;
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
