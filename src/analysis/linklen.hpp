// linklen.hpp — experiment E3: long-range-link length distribution.
//
// Fact 4.21 / Theorem 4.22: after stabilization the long-range links follow
// the 1-harmonic distribution P(d) ∝ 1/d (up to polylog factors).  These
// drivers sample link lengths over time from (a) the in-protocol
// move-and-forget and (b) the reference CFL process, log-bin them, and fit a
// power law — the reproduction target is exponent ≈ −1.
#pragma once

#include <cstdint>
#include <vector>

#include "core/config.hpp"
#include "util/stats.hpp"

namespace sssw::analysis {

struct LinkLenOptions {
  std::size_t n = 256;
  /// Steps/rounds to discard before sampling (mixing time).
  std::size_t burn_in = 0;  // 0 → 8·n
  /// Number of snapshots to take, n/8 steps/rounds apart (decorrelation).
  std::size_t snapshots = 64;
  std::uint64_t seed = 1;
  double epsilon = 0.1;
};

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

/// Samples the standalone CFL move-and-forget process on a static ring.
LinkLenResult measure_cfl_linklen(const LinkLenOptions& options);

/// Samples the protocol's long-range links on a stabilized network (the
/// in-protocol variant: inclrl/reslrl/move-forget messages).
LinkLenResult measure_protocol_linklen(const LinkLenOptions& options,
                                       const core::Config& protocol);

/// Fits a power law to a log-binned histogram of the given length samples
/// over [1, max_length]; shared by both drivers and the tests.
LinkLenResult fit_lengths(const std::vector<std::size_t>& lengths,
                          std::size_t max_length, std::size_t bins);

}  // namespace sssw::analysis
