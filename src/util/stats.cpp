#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace sssw::util {

void Welford::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void Welford::merge(const Welford& other) noexcept {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(n_);
  const auto nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double Welford::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double Welford::stddev() const noexcept { return std::sqrt(variance()); }

double percentile_sorted(std::span<const double> sorted, double pct) {
  if (sorted.empty()) return 0.0;
  if (sorted.size() == 1) return sorted[0];
  const double clamped = std::clamp(pct, 0.0, 100.0);
  const double pos = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto idx = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(idx);
  if (idx + 1 >= sorted.size()) return sorted.back();
  return sorted[idx] * (1.0 - frac) + sorted[idx + 1] * frac;
}

Summary summarize(std::span<const double> data) {
  Summary s;
  s.count = data.size();
  if (data.empty()) return s;
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  Welford w;
  for (const double x : sorted) w.add(x);
  s.mean = w.mean();
  s.stddev = w.stddev();
  s.min = sorted.front();
  s.max = sorted.back();
  s.p25 = percentile_sorted(sorted, 25.0);
  s.median = percentile_sorted(sorted, 50.0);
  s.p75 = percentile_sorted(sorted, 75.0);
  s.p90 = percentile_sorted(sorted, 90.0);
  s.p99 = percentile_sorted(sorted, 99.0);
  return s;
}

LogHistogram::LogHistogram(double lo, double hi, std::size_t bins)
    : log_lo_(std::log(lo)),
      log_hi_(std::log(hi)),
      log_width_((std::log(hi) - std::log(lo)) / static_cast<double>(bins)),
      counts_(bins, 0.0) {
  SSSW_CHECK_MSG(bins > 0 && lo > 0.0 && hi > lo,
                 "LogHistogram requires bins > 0 and hi > lo > 0");
}

void LogHistogram::add(double x, double weight) noexcept {
  if (!std::isfinite(x) || x <= 0.0) {
    // NaN/±inf would hit undefined double→integer conversion; non-positive
    // samples have no log image.  All are counted instead of silently lost.
    ++rejected_;
    return;
  }
  auto idx = static_cast<std::ptrdiff_t>((std::log(x) - log_lo_) / log_width_);
  idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  counts_[static_cast<std::size_t>(idx)] += weight;
  total_ += weight;
}

double LogHistogram::bin_lo(std::size_t i) const noexcept {
  return std::exp(log_lo_ + log_width_ * static_cast<double>(i));
}
double LogHistogram::bin_hi(std::size_t i) const noexcept {
  return std::exp(log_lo_ + log_width_ * static_cast<double>(i + 1));
}
double LogHistogram::bin_center(std::size_t i) const noexcept {
  return std::exp(log_lo_ + log_width_ * (static_cast<double>(i) + 0.5));
}
double LogHistogram::density(std::size_t i) const noexcept {
  const double width = bin_hi(i) - bin_lo(i);
  return width > 0.0 ? counts_[i] / width : 0.0;
}

LinearFit fit_linear(std::span<const double> x, std::span<const double> y) {
  LinearFit fit;
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return fit;
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  if (sxx == 0.0) return fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r2 = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  fit.count = n;
  return fit;
}

PowerLawFit fit_power_law(std::span<const double> x, std::span<const double> y) {
  std::vector<double> lx, ly;
  const std::size_t n = std::min(x.size(), y.size());
  lx.reserve(n);
  ly.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] > 0.0 && y[i] > 0.0) {
      lx.push_back(std::log(x[i]));
      ly.push_back(std::log(y[i]));
    }
  }
  const LinearFit lin = fit_linear(lx, ly);
  PowerLawFit fit;
  fit.exponent = lin.slope;
  fit.prefactor = std::exp(lin.intercept);
  fit.r2 = lin.r2;
  fit.count = lin.count;
  return fit;
}

PolylogFit fit_polylog(std::span<const double> x, std::span<const double> y) {
  std::vector<double> lx, ly;
  const std::size_t n = std::min(x.size(), y.size());
  lx.reserve(n);
  ly.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (x[i] > 1.0 && y[i] > 0.0) {
      lx.push_back(std::log(std::log(x[i])));
      ly.push_back(std::log(y[i]));
    }
  }
  const LinearFit lin = fit_linear(lx, ly);
  PolylogFit fit;
  fit.exponent = lin.slope;
  fit.prefactor = std::exp(lin.intercept);
  fit.r2 = lin.r2;
  fit.count = lin.count;
  return fit;
}

double mean_of(std::span<const double> data) {
  if (data.empty()) return 0.0;
  double s = 0.0;
  for (const double x : data) s += x;
  return s / static_cast<double>(data.size());
}

Interval bootstrap_mean_ci(std::span<const double> data, double confidence,
                           std::size_t resamples, Rng& rng) {
  if (data.empty()) return {};
  if (data.size() == 1) return {data[0], data[0]};
  SSSW_CHECK_MSG(confidence > 0.0 && confidence < 1.0, "confidence must be in (0,1)");
  std::vector<double> means;
  means.reserve(resamples);
  for (std::size_t b = 0; b < resamples; ++b) {
    double sum = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) sum += data[rng.below(data.size())];
    means.push_back(sum / static_cast<double>(data.size()));
  }
  std::sort(means.begin(), means.end());
  const double alpha = 1.0 - confidence;
  return {percentile_sorted(means, 100.0 * alpha / 2.0),
          percentile_sorted(means, 100.0 * (1.0 - alpha / 2.0))};
}

}  // namespace sssw::util
