#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace pt::common {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(11);
  double acc = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, BelowStaysBelowBound) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 7ull, 100ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowZeroBoundReturnsZero) {
  Rng rng(3);
  EXPECT_EQ(rng.below(0), 0u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(9);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  Rng rng(13);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 0.5);
  EXPECT_NEAR(sum / n, 5.0, 0.02);
}

TEST(Rng, LognormalIsPositive) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 1.0), 0.0);
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(21);
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (parent() == child()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(29);
  const auto sample = rng.sample_without_replacement(1000, 100);
  EXPECT_EQ(sample.size(), 100u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 100u);
  for (const auto s : sample) EXPECT_LT(s, 1000u);
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(31);
  auto sample = rng.sample_without_replacement(50, 50);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(sample[i], i);
}

TEST(Rng, SampleWithoutReplacementSparseHugeN) {
  Rng rng(37);
  // Exercises the Floyd's-algorithm path (n >> k).
  const auto sample = rng.sample_without_replacement(10'000'000, 500);
  EXPECT_EQ(sample.size(), 500u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 500u);
  for (const auto s : sample) EXPECT_LT(s, 10'000'000u);
}

/// The partial Fisher-Yates over a filled n-sized index array, as the
/// sampler's dense branch once ran it: the reference its O(k) form must
/// equal draw for draw.
std::vector<std::size_t> dense_fisher_yates(Rng& rng, std::size_t n,
                                            std::size_t k) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

TEST(Rng, SampleWithoutReplacementEqualsDenseFisherYates) {
  // k = 0, k = n, n <= 4k and n > 4k, up to the largest n of the branch,
  // 2^20 - 1; above 65,536 only the sample sizes the tuners draw.
  std::set<std::pair<std::size_t, std::size_t>> shapes;
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{7},
                              std::size_t{40}, std::size_t{1000},
                              std::size_t{65536}, std::size_t{655360},
                              (std::size_t{1} << 20) - 1}) {
    for (const std::size_t k :
         {std::size_t{0}, std::size_t{1}, std::size_t{80}, std::size_t{2000},
          n / 4, n / 4 + 1, n - 1, n})
      if (k <= n && (n <= 65536 || k <= 2000)) shapes.insert({n, k});
  }
  for (const auto& [n, k] : shapes) {
    for (const std::uint64_t seed : {1U, 7U, 12345U}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k) +
                   " seed=" + std::to_string(seed));
      Rng got_rng(seed);
      Rng want_rng(seed);
      EXPECT_EQ(got_rng.sample_without_replacement(n, k),
                dense_fisher_yates(want_rng, n, k));
      EXPECT_EQ(got_rng(), want_rng());
    }
  }
}

TEST(Rng, SampleWithoutReplacementRejectsKGreaterThanN) {
  Rng rng(41);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), std::invalid_argument);
}

TEST(Rng, SampleWithoutReplacementZeroK) {
  Rng rng(43);
  EXPECT_TRUE(rng.sample_without_replacement(5, 0).empty());
}

TEST(Rng, Splitmix64KnownProgression) {
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 0;
  const auto a = splitmix64(s1);
  const auto b = splitmix64(s2);
  EXPECT_EQ(a, b);  // same seed, same first output
  EXPECT_NE(splitmix64(s1), a);  // state advances
}

}  // namespace
}  // namespace pt::common
