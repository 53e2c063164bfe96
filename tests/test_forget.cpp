// Tests for core/forget: φ(α) values, the telescoped survival law, and the
// NodeStore's φ table that move-and-forget reads.
#include "core/forget.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/node_store.hpp"

namespace sssw::core {
namespace {

constexpr double kEps = 0.1;

TEST(Forget, ZeroForYoungLinks) {
  EXPECT_EQ(forget_probability(0, kEps), 0.0);
  EXPECT_EQ(forget_probability(1, kEps), 0.0);
  EXPECT_EQ(forget_probability(2, kEps), 0.0);
}

TEST(Forget, ClosedFormAtThree) {
  // φ(3) = 1 − (2/3)·(ln2/ln3)^{1+ε}
  const double expected =
      1.0 - (2.0 / 3.0) * std::pow(std::log(2.0) / std::log(3.0), 1.0 + kEps);
  EXPECT_NEAR(forget_probability(3, kEps), expected, 1e-12);
  EXPECT_GT(expected, 0.3);  // the first forgettable age is quite volatile
}

TEST(Forget, AlwaysAProbability) {
  for (Age age = 0; age < 100000; age = age * 3 / 2 + 1) {
    const double phi = forget_probability(age, kEps);
    EXPECT_GE(phi, 0.0) << "age " << age;
    EXPECT_LT(phi, 1.0) << "age " << age;
  }
}

TEST(Forget, DecreasesWithAge) {
  // Old links are sticky: φ decreases monotonically for α ≥ 3, which is what
  // produces the heavy-tailed age distribution.
  double prev = forget_probability(3, kEps);
  for (Age age = 4; age < 10000; age = age + 1 + age / 7) {
    const double phi = forget_probability(age, kEps);
    EXPECT_LT(phi, prev) << "age " << age;
    prev = phi;
  }
}

TEST(Forget, VanishesAsymptotically) {
  EXPECT_LT(forget_probability(1u << 20, kEps), 1e-5);
}

TEST(Forget, EpsilonIncreasesForgetting) {
  for (Age age : {3u, 10u, 100u, 1000u}) {
    EXPECT_LT(forget_probability(age, 0.05), forget_probability(age, 0.5))
        << "age " << age;
  }
}

TEST(Survival, OneForYoungLinks) {
  EXPECT_EQ(survival_probability(0, kEps), 1.0);
  EXPECT_EQ(survival_probability(2, kEps), 1.0);
}

TEST(Survival, MatchesTelescopedProduct) {
  // survival(α) must equal Π_{a≤α} (1 − φ(a)) computed numerically.
  double product = 1.0;
  for (Age age = 3; age <= 2000; ++age) {
    product *= 1.0 - forget_probability(age, kEps);
    if (age % 97 == 0 || age <= 10) {
      EXPECT_NEAR(survival_probability(age, kEps), product,
                  1e-9 * survival_probability(age, kEps) + 1e-15)
          << "age " << age;
    }
  }
}

TEST(Survival, ClosedForm) {
  // (2/α)(ln2/lnα)^{1+ε} at a few spot ages.
  for (Age age : {4u, 64u, 1024u}) {
    const auto a = static_cast<double>(age);
    const double expected =
        (2.0 / a) * std::pow(std::log(2.0) / std::log(a), 1.0 + kEps);
    EXPECT_NEAR(survival_probability(age, kEps), expected, 1e-12);
  }
}

TEST(Survival, MonotoneDecreasing) {
  double prev = 1.0;
  for (Age age = 3; age < 100000; age = age * 2) {
    const double s = survival_probability(age, kEps);
    EXPECT_LT(s, prev);
    prev = s;
  }
}

TEST(Survival, HeavyTail) {
  // The expected age is huge: survival decays only slightly faster than 1/α,
  // so P[age > 10^4] is still ~10^-4·polylog — not exponentially small.
  EXPECT_GT(survival_probability(10000, kEps), 1e-5);
}

// The store's table must be the formula, bit for bit: a φ that differed in
// the last place would flip a Bernoulli draw somewhere and move a pinned
// trajectory.  Cover the whole table and 64 ages past its bound.
TEST(ForgetCache, IsTheFormulaBitForBit) {
  for (const double epsilon : {0.1, 0.5}) {
    Config config;
    config.epsilon = epsilon;
    NodeStore store(config);
    for (Age age = 0; age < NodeStore::kForgetCacheAges + 64; ++age) {
      EXPECT_EQ(store.forget_probability(age), forget_probability(age, epsilon))
          << "eps " << epsilon << " age " << age;
    }
  }
}

TEST(ForgetCache, FillOrderDoesNotMatter) {
  // First lookup at the table's last age fills it at once; then read it
  // back from past the bound down to 0.
  for (const double epsilon : {0.1, 0.5}) {
    Config config;
    config.epsilon = epsilon;
    NodeStore store(config);
    const Age last = NodeStore::kForgetCacheAges - 1;
    EXPECT_EQ(store.forget_probability(last), forget_probability(last, epsilon));
    for (Age age = NodeStore::kForgetCacheAges + 64; age-- > 0;) {
      EXPECT_EQ(store.forget_probability(age), forget_probability(age, epsilon))
          << "eps " << epsilon << " age " << age;
    }
  }
}

}  // namespace
}  // namespace sssw::core
