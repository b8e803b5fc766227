#include "fluid/jitter.hpp"

#include <gtest/gtest.h>

namespace ecnd::fluid {
namespace {

TEST(Jitter, DisabledIsZeroEverywhere) {
  JitterProcess off;
  EXPECT_FALSE(off.enabled());
  for (double t = 0.0; t < 1.0; t += 0.01) EXPECT_EQ(off.value(t), 0.0);
}

TEST(Jitter, ValuesWithinAmplitude) {
  JitterProcess j(100e-6, 10e-6, 1);
  for (double t = 0.0; t < 0.01; t += 1e-6) {
    EXPECT_GE(j.value(t), 0.0);
    EXPECT_LT(j.value(t), 100e-6);
  }
}

TEST(Jitter, PiecewiseConstantWithinBucket) {
  JitterProcess j(50e-6, 10e-6, 2);
  const double v = j.value(25e-6);
  EXPECT_EQ(j.value(21e-6), v);
  EXPECT_EQ(j.value(29e-6), v);
}

TEST(Jitter, ChangesAcrossBuckets) {
  JitterProcess j(50e-6, 10e-6, 3);
  int changes = 0;
  double prev = j.value(0.0);
  for (int bucket = 1; bucket < 50; ++bucket) {
    const double v = j.value(bucket * 10e-6 + 1e-6);
    changes += v != prev;
    prev = v;
  }
  EXPECT_GT(changes, 40);
}

TEST(Jitter, DeterministicInSeedAndTime) {
  JitterProcess a(80e-6, 20e-6, 7);
  JitterProcess b(80e-6, 20e-6, 7);
  JitterProcess c(80e-6, 20e-6, 8);
  int diff = 0;
  for (double t = 0.0; t < 0.002; t += 13e-6) {
    EXPECT_EQ(a.value(t), b.value(t));
    diff += a.value(t) != c.value(t);
  }
  EXPECT_GT(diff, 50);
  // Golden values: the bucket hash is SplitMix64, pinned literally.
  const JitterProcess g(50e-6, 10e-6, 42);
  EXPECT_EQ(g.value(0.0), 0x1.6fc4a7d8bb7d4p-15);
  EXPECT_EQ(g.value(9.99e-6), 0x1.6fc4a7d8bb7d4p-15);
  EXPECT_EQ(g.value(1e-5), 0x1.3e8862dedf2bap-15);
  EXPECT_EQ(g.value(0.0123), 0x1.0020c91266c0dp-15);
}

TEST(Jitter, RoughlyUniformMean) {
  JitterProcess j(100e-6, 1e-6, 9);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += j.value(i * 1e-6 + 0.5e-6);
  EXPECT_NEAR(sum / n, 50e-6, 2e-6);
}

}  // namespace
}  // namespace ecnd::fluid
