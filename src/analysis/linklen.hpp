// linklen.hpp — experiment E3: long-range-link length distribution.
//
// Fact 4.21 / Theorem 4.22: after stabilization the long-range links follow
// the 1-harmonic distribution P(d) ∝ 1/d (up to polylog factors).  E3's
// driver (linklen.cpp) samples link lengths over time from (a) the
// in-protocol move-and-forget or (b) the reference CFL process, log-bins
// them, and fits a power law — the reproduction target is exponent ≈ −1.
#pragma once

#include <cstdint>
#include <vector>

#include "util/stats.hpp"

namespace sssw::analysis {

struct LinkLenResult {
  /// Raw power law density(d) ∝ d^exponent.  NOTE: the CFL stationary law is
  /// P(d) ∝ 1/(d·ln^{1+ε} d), whose local log-log slope is −1 − (1+ε)/ln d —
  /// noticeably steeper than −1 at simulation-scale d.  Expect ≈ −1.4..−2.1
  /// for n ≤ 1024; the −1 is the d → ∞ asymptote.
  util::PowerLawFit fit;
  /// The sharp test of the exact CFL form: regress ln(P(d)·d) on ln ln d.
  /// If P(d) = c/(d·ln^{1+ε} d) the slope is −(1+ε).
  util::LinearFit corrected;
  std::vector<double> bin_centers;
  std::vector<double> densities;  ///< normalized empirical density per bin
  std::size_t samples = 0;
  double mean_length = 0.0;
};

/// Fits a power law to a log-binned histogram of the given length samples
/// over [1, max_length]; E3's driver and the tests share it.
LinkLenResult fit_lengths(const std::vector<std::size_t>& lengths,
                          std::size_t max_length, std::size_t bins);

}  // namespace sssw::analysis
