// Tests for util/rng: determinism, distribution sanity, stream independence.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>
#include <vector>

namespace sssw::util {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a() == b());
  EXPECT_LT(same, 3);
}

TEST(Rng, SplitmixAdvancesState) {
  std::uint64_t s = 42;
  const auto x = splitmix64(s);
  const auto y = splitmix64(s);
  EXPECT_NE(x, y);
  EXPECT_NE(s, 42u);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::array<int, 7> counts{};
  for (int i = 0; i < 7000; ++i) ++counts[rng.below(7)];
  for (const int count : counts) {
    EXPECT_GT(count, 700);  // expectation 1000; far tail would signal bias
    EXPECT_LT(count, 1300);
  }
}

TEST(Rng, RangeInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, RangeSingleton) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.range(42, 42), 42);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, UniformRange) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
    EXPECT_TRUE(rng.bernoulli(2.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, CoinIsFair) {
  Rng rng(31);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.coin();
  EXPECT_NEAR(heads / 10000.0, 0.5, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(37);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += rng.exponential(2.0);
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.03);
}

TEST(Rng, SplitStreamsAreUncorrelated) {
  Rng parent(41);
  Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (parent() == child());
  EXPECT_LT(same, 3);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(47);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  shuffle(v, rng);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(Rng, ShuffleActuallyShuffles) {
  Rng rng(53);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  shuffle(v, rng);
  int fixed = 0;
  for (int i = 0; i < 100; ++i) fixed += (v[i] == i);
  EXPECT_LT(fixed, 15);  // expectation 1 fixed point
}

TEST(Rng, ShuffleEmptyAndSingleton) {
  Rng rng(59);
  std::vector<int> empty;
  shuffle(empty, rng);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{7};
  shuffle(one, rng);
  EXPECT_EQ(one[0], 7);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~0ull);
}

}  // namespace
}  // namespace sssw::util
