#include "core/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace ecnd {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_EQ(same, 0);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a.next_u64());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next_u64(), first[static_cast<std::size_t>(i)]);
  // Golden first draws after SplitMix64 seeding, pinned literally.
  a.reseed(0);
  EXPECT_EQ(a.next_u64(), 0x99ec5f36cb75f2b4ULL);
  EXPECT_EQ(a.next_u64(), 0xbf6e1f784956452aULL);
  EXPECT_EQ(a.next_u64(), 0x1a5f849d4933e6e0ULL);
  a.reseed(1);
  EXPECT_EQ(a.next_u64(), 0xb3f2af6d0fc710c5ULL);
  EXPECT_EQ(a.next_u64(), 0x853b559647364ceaULL);
  a.reseed(20161212);
  EXPECT_EQ(a.next_u64(), 0x5988323e1b3478a9ULL);
  EXPECT_EQ(a.next_u64(), 0x7ab88447c907f928ULL);
  EXPECT_EQ(a.next_u64(), 0x99e614c5e8b285b6ULL);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(5);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    sum += u;
    sum2 += u * u;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.5, 0.005);
  EXPECT_NEAR(var, 1.0 / 12.0, 0.005);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 7.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.uniform_index(10)];
  for (int c : counts) {
    EXPECT_GT(c, 9000);
    EXPECT_LT(c, 11000);
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, ExponentialAlwaysPositive) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) EXPECT_GT(rng.exponential(1.0), 0.0);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  double sum = 0.0, sum2 = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(10.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(29);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, WorksAsUniformRandomBitGenerator) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5};
  std::shuffle(v.begin(), v.end(), rng);  // compiles + runs
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, (std::vector<int>{1, 2, 3, 4, 5}));
}

}  // namespace
}  // namespace ecnd
