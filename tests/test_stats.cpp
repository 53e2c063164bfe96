// Tests for util/stats: accumulators, histograms, and model fits.
#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "util/rng.hpp"

namespace sssw::util {
namespace {

TEST(Welford, MatchesDirectComputation) {
  const std::vector<double> data{1.0, 2.0, 3.0, 4.0, 10.0};
  Welford w;
  for (const double x : data) w.add(x);
  EXPECT_EQ(w.count(), 5u);
  EXPECT_DOUBLE_EQ(w.mean(), 4.0);
  // Sample variance: ((−3)²+(−2)²+(−1)²+0²+6²)/4 = 50/4.
  EXPECT_DOUBLE_EQ(w.variance(), 12.5);
  EXPECT_DOUBLE_EQ(w.min(), 1.0);
  EXPECT_DOUBLE_EQ(w.max(), 10.0);
}

TEST(Welford, EmptyIsZero) {
  Welford w;
  EXPECT_EQ(w.count(), 0u);
  EXPECT_EQ(w.mean(), 0.0);
  EXPECT_EQ(w.variance(), 0.0);
}

TEST(Welford, SingleSampleHasZeroVariance) {
  Welford w;
  w.add(3.5);
  EXPECT_EQ(w.variance(), 0.0);
  EXPECT_EQ(w.mean(), 3.5);
}

TEST(Welford, MergeEqualsSequential) {
  Rng rng(1);
  Welford all, left, right;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-10, 10);
    all.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(Welford, MergeWithEmpty) {
  Welford a, b;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(b);
  EXPECT_EQ(a.mean(), mean);
  b.merge(a);
  EXPECT_EQ(b.count(), 2u);
  EXPECT_EQ(b.mean(), mean);
}

TEST(Percentile, Interpolates) {
  const std::vector<double> sorted{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 50), 25.0);
  EXPECT_DOUBLE_EQ(percentile_sorted(sorted, 25), 17.5);
}

TEST(Percentile, DegenerateInputs) {
  EXPECT_EQ(percentile_sorted({}, 50), 0.0);
  const std::vector<double> one{5.0};
  EXPECT_EQ(percentile_sorted(one, 99), 5.0);
}

TEST(Summary, FiveNumberSanity) {
  std::vector<double> data;
  for (int i = 1; i <= 100; ++i) data.push_back(i);
  const Summary s = summarize(data);
  EXPECT_EQ(s.count, 100u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_EQ(s.min, 1.0);
  EXPECT_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 0.01);
  EXPECT_NEAR(s.p90, 90.1, 0.2);
}

TEST(Summary, EmptyInput) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.mean, 0.0);
}

TEST(LogHistogram, GeometricBins) {
  LogHistogram h(1.0, 1024.0, 10);
  EXPECT_NEAR(h.bin_lo(0), 1.0, 1e-9);
  EXPECT_NEAR(h.bin_hi(9), 1024.0, 1e-6);
  // Bin boundaries grow by a constant ratio.
  const double ratio0 = h.bin_hi(0) / h.bin_lo(0);
  const double ratio5 = h.bin_hi(5) / h.bin_lo(5);
  EXPECT_NEAR(ratio0, ratio5, 1e-9);
}

TEST(LogHistogram, DensityDividesByWidth) {
  LogHistogram h(1.0, 100.0, 4);
  h.add(2.0);
  const std::size_t bin = [&] {
    for (std::size_t i = 0; i < h.bins(); ++i)
      if (h.count(i) > 0) return i;
    return std::size_t{0};
  }();
  EXPECT_NEAR(h.density(bin), 1.0 / (h.bin_hi(bin) - h.bin_lo(bin)), 1e-12);
}

TEST(LogHistogram, IgnoresNonPositive) {
  LogHistogram h(1.0, 10.0, 3);
  h.add(0.0);
  h.add(-5.0);
  EXPECT_EQ(h.total(), 0.0);
}

TEST(LinearFit, ExactLine) {
  const std::vector<double> x{1, 2, 3, 4, 5};
  const std::vector<double> y{3, 5, 7, 9, 11};  // y = 2x + 1
  const LinearFit fit = fit_linear(x, y);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LinearFit, DegenerateInputs) {
  EXPECT_EQ(fit_linear({}, {}).count, 0u);
  const std::vector<double> x{1.0, 1.0};
  const std::vector<double> y{2.0, 3.0};
  EXPECT_EQ(fit_linear(x, y).count, 0u);  // vertical line: no fit
}

TEST(PowerLawFit, RecoverExponent) {
  std::vector<double> x, y;
  for (int d = 1; d <= 100; ++d) {
    x.push_back(d);
    y.push_back(7.0 * std::pow(d, -1.5));
  }
  const PowerLawFit fit = fit_power_law(x, y);
  EXPECT_NEAR(fit.exponent, -1.5, 1e-9);
  EXPECT_NEAR(fit.prefactor, 7.0, 1e-6);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(PowerLawFit, SkipsNonPositive) {
  const std::vector<double> x{-1, 0, 1, 2, 4};
  const std::vector<double> y{5, 5, 1, 0.5, 0.25};
  const PowerLawFit fit = fit_power_law(x, y);
  EXPECT_EQ(fit.count, 3u);
  EXPECT_NEAR(fit.exponent, -1.0, 1e-9);
}

TEST(PolylogFit, RecoverExponent) {
  std::vector<double> x, y;
  for (int d = 2; d <= 4096; d *= 2) {
    x.push_back(d);
    y.push_back(3.0 * std::pow(std::log(d), 2.0));
  }
  const PolylogFit fit = fit_polylog(x, y);
  EXPECT_NEAR(fit.exponent, 2.0, 1e-9);
  EXPECT_NEAR(fit.prefactor, 3.0, 1e-6);
}

TEST(MeanOf, Basics) {
  EXPECT_EQ(mean_of({}), 0.0);
  const std::vector<double> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(mean_of(v), 2.0);
}

TEST(BootstrapCi, BracketsTheMean) {
  Rng rng(1);
  std::vector<double> data;
  for (int i = 0; i < 200; ++i) data.push_back(rng.uniform(0.0, 10.0));
  Rng boot(2);
  const Interval ci = bootstrap_mean_ci(data, 0.95, 2000, boot);
  const double mean = mean_of(data);
  EXPECT_TRUE(ci.contains(mean));
  EXPECT_GT(ci.width(), 0.0);
  EXPECT_LT(ci.width(), 2.0);  // se ≈ 10/√12/√200 ≈ 0.2 → width ≈ 0.8
}

TEST(BootstrapCi, WiderAtHigherConfidence) {
  Rng rng(3);
  std::vector<double> data;
  for (int i = 0; i < 100; ++i) data.push_back(rng.uniform(-1.0, 1.0));
  Rng boot_a(4), boot_b(4);
  const Interval narrow = bootstrap_mean_ci(data, 0.8, 2000, boot_a);
  const Interval wide = bootstrap_mean_ci(data, 0.99, 2000, boot_b);
  EXPECT_GT(wide.width(), narrow.width());
}

TEST(BootstrapCi, ShrinksWithSampleSize) {
  Rng rng(5);
  std::vector<double> small_sample, large_sample;
  for (int i = 0; i < 20; ++i) small_sample.push_back(rng.uniform());
  for (int i = 0; i < 2000; ++i) large_sample.push_back(rng.uniform());
  Rng boot_a(6), boot_b(6);
  const Interval small_ci = bootstrap_mean_ci(small_sample, 0.95, 1000, boot_a);
  const Interval large_ci = bootstrap_mean_ci(large_sample, 0.95, 1000, boot_b);
  EXPECT_LT(large_ci.width(), small_ci.width());
}

TEST(BootstrapCi, DegenerateInputs) {
  Rng rng(7);
  const Interval empty = bootstrap_mean_ci({}, 0.95, 100, rng);
  EXPECT_EQ(empty.lo, 0.0);
  EXPECT_EQ(empty.hi, 0.0);
  const std::vector<double> one{42.0};
  const Interval single = bootstrap_mean_ci(one, 0.95, 100, rng);
  EXPECT_EQ(single.lo, 42.0);
  EXPECT_EQ(single.hi, 42.0);
}

TEST(LogHistogram, RejectsNonFiniteAndNonPositiveSamples) {
  LogHistogram h(1.0, 1000.0, 6);
  h.add(50.0);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(std::numeric_limits<double>::infinity());
  h.add(0.0);    // no log image
  h.add(-4.0);   // likewise
  EXPECT_EQ(h.rejected(), 4u);
  EXPECT_DOUBLE_EQ(h.total(), 1.0);
}

TEST(BootstrapCi, RoughCoverage) {
  // Over repeated experiments the 90% CI should contain the true mean
  // roughly 90% of the time (tolerate 75–100% at 40 repetitions).
  Rng rng(8);
  int covered = 0;
  constexpr int kReps = 40;
  for (int rep = 0; rep < kReps; ++rep) {
    std::vector<double> data;
    for (int i = 0; i < 50; ++i) data.push_back(rng.uniform(0.0, 2.0));  // mean 1
    const Interval ci = bootstrap_mean_ci(data, 0.9, 500, rng);
    covered += ci.contains(1.0);
  }
  EXPECT_GE(covered, 30);
}

}  // namespace
}  // namespace sssw::util
