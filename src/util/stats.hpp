// stats.hpp — descriptive statistics and model fits for experiment analysis.
//
// Everything here is deterministic and allocation-light: the experiment
// drivers accumulate into Welford/Histogram objects inside hot loops and
// call the summarising helpers once at the end.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace sssw::util {

/// Streaming mean/variance accumulator (Welford's algorithm).
class Welford {
 public:
  void add(double x) noexcept;
  void merge(const Welford& other) noexcept;

  std::size_t count() const noexcept { return n_; }
  double mean() const noexcept { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const noexcept;
  double stddev() const noexcept;
  double min() const noexcept { return n_ ? min_ : 0.0; }
  double max() const noexcept { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Full five-number-plus summary of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Computes a Summary; sorts a copy of the data (linear-interp percentiles).
Summary summarize(std::span<const double> data);

/// Percentile in [0,100] with linear interpolation over *sorted* data.
double percentile_sorted(std::span<const double> sorted, double pct);

/// Fixed-width histogram over [lo, hi); finite out-of-range samples clamp to
/// the first/last bin so nothing is silently dropped.  Non-finite samples
/// (NaN, ±inf) are skipped and tallied in rejected().
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0) noexcept;
  std::size_t bins() const noexcept { return counts_.size(); }
  double bin_lo(std::size_t i) const noexcept;
  double bin_hi(std::size_t i) const noexcept;
  double bin_center(std::size_t i) const noexcept;
  double count(std::size_t i) const noexcept { return counts_[i]; }
  double total() const noexcept { return total_; }
  /// Number of samples refused because they were NaN or ±inf.
  std::uint64_t rejected() const noexcept { return rejected_; }

 private:
  double lo_, hi_, width_;
  double total_ = 0.0;
  std::uint64_t rejected_ = 0;
  std::vector<double> counts_;
};

/// Logarithmically-binned histogram over [lo, hi) with lo > 0 — the natural
/// representation for power-law link-length distributions.
class LogHistogram {
 public:
  LogHistogram(double lo, double hi, std::size_t bins);

  void add(double x, double weight = 1.0) noexcept;
  std::size_t bins() const noexcept { return counts_.size(); }
  double bin_lo(std::size_t i) const noexcept;
  double bin_hi(std::size_t i) const noexcept;
  /// Geometric bin centre.
  double bin_center(std::size_t i) const noexcept;
  double count(std::size_t i) const noexcept { return counts_[i]; }
  /// Count divided by bin width — the empirical density at the bin centre.
  double density(std::size_t i) const noexcept;
  double total() const noexcept { return total_; }
  /// Number of samples refused: NaN, ±inf, or non-positive (no log image).
  std::uint64_t rejected() const noexcept { return rejected_; }

 private:
  double log_lo_, log_hi_, log_width_;
  double total_ = 0.0;
  std::uint64_t rejected_ = 0;
  std::vector<double> counts_;
};

/// Ordinary least-squares line y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination; 0 when undefined.
  double r2 = 0.0;
  std::size_t count = 0;
};

LinearFit fit_linear(std::span<const double> x, std::span<const double> y);

/// Power-law fit y = c * x^exponent via OLS in log-log space.  Points with
/// non-positive x or y are skipped (they have no log image).
struct PowerLawFit {
  double exponent = 0.0;
  double prefactor = 0.0;
  double r2 = 0.0;
  std::size_t count = 0;
};

PowerLawFit fit_power_law(std::span<const double> x, std::span<const double> y);

/// Fit y = c * ln(x)^exponent — the paper's polylogarithmic scaling shape —
/// via OLS of log y on log log x.  Points with x <= 1 or y <= 0 are skipped.
struct PolylogFit {
  double exponent = 0.0;
  double prefactor = 0.0;
  double r2 = 0.0;
  std::size_t count = 0;
};

PolylogFit fit_polylog(std::span<const double> x, std::span<const double> y);

/// Pearson chi-square statistic of observed counts vs expected counts
/// (both must be the same length; expected entries <= 0 are skipped).
double chi_square(std::span<const double> observed, std::span<const double> expected);

/// Mean of a sample (0 for empty).
double mean_of(std::span<const double> data);

/// A two-sided confidence interval.
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double x) const noexcept { return lo <= x && x <= hi; }
  double width() const noexcept { return hi - lo; }
};

/// Percentile-bootstrap confidence interval for the mean: resamples the data
/// with replacement `resamples` times and takes the (α/2, 1−α/2) quantiles
/// of the resampled means.  Deterministic given `rng`.
Interval bootstrap_mean_ci(std::span<const double> data, double confidence,
                           std::size_t resamples, Rng& rng);

}  // namespace sssw::util
