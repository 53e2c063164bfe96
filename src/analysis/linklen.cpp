#include "analysis/linklen.hpp"

#include <algorithm>
#include <cmath>

#include "analysis/convergence.hpp"
#include "analysis/drivers.hpp"
#include "topology/cfl.hpp"
#include "util/rng.hpp"

namespace sssw::analysis {

LinkLenResult fit_lengths(const std::vector<std::size_t>& lengths,
                          std::size_t max_length, std::size_t bins) {
  LinkLenResult result;
  result.samples = lengths.size();
  if (lengths.empty() || max_length < 2) return result;

  util::LogHistogram hist(1.0, static_cast<double>(max_length) + 1.0, bins);
  double total_length = 0.0;
  for (const std::size_t length : lengths) {
    total_length += static_cast<double>(length);
    if (length >= 1) hist.add(static_cast<double>(length));
  }
  result.mean_length = total_length / static_cast<double>(lengths.size());

  for (std::size_t b = 0; b < hist.bins(); ++b) {
    if (hist.count(b) <= 0.0) continue;  // empty bins carry no log-log signal
    result.bin_centers.push_back(hist.bin_center(b));
    result.densities.push_back(hist.density(b) / hist.total());
  }
  result.fit = util::fit_power_law(result.bin_centers, result.densities);

  // Corrected-form regression: ln(P·d) on ln ln d, over bins with d > e so
  // ln ln d is defined and positive.
  std::vector<double> loglog_d, log_pd;
  for (std::size_t i = 0; i < result.bin_centers.size(); ++i) {
    const double d = result.bin_centers[i];
    const double density = result.densities[i];
    if (d > 2.8 && density > 0.0) {
      loglog_d.push_back(std::log(std::log(d)));
      log_pd.push_back(std::log(density * d));
    }
  }
  result.corrected = util::fit_linear(loglog_d, log_pd);
  return result;
}

// --- E3: long-range-link length law (Fact 4.21 / Thm 4.22) -----------------

CellResult run_linklen(const SweepCell& cell, obs::Registry*) {
  // 8n steps (CFL) or rounds (protocol) of burn-in, then 64 snapshots n/8
  // apart, every snapshot's links pooled into one fit over 24 log bins.
  constexpr std::size_t kSnapshots = 64;
  constexpr std::size_t kHistogramBins = 24;
  const std::size_t n = cell.n;
  const std::size_t stride = std::max<std::size_t>(1, n / 8);
  const core::Config protocol = ablation_config(cell);
  std::vector<std::size_t> lengths;
  lengths.reserve(kSnapshots * n);
  const auto keep = [&lengths](const std::vector<std::size_t>& snapshot) {
    for (const std::size_t length : snapshot)
      if (length >= 1) lengths.push_back(length);
  };
  if (word_param(cell, "process") == "protocol") {
    core::SmallWorldNetwork network =
        stabilized_network(n, cell.seed, 8 * n, protocol);
    for (std::size_t snap = 0; snap < kSnapshots; ++snap) {
      network.run_rounds(stride);
      keep(network.lrl_lengths());
    }
  } else {
    topology::CflProcess process(n, protocol.epsilon, util::Rng(cell.seed));
    process.run(8 * n);
    for (std::size_t snap = 0; snap < kSnapshots; ++snap) {
      process.run(stride);
      keep(process.link_lengths());
    }
  }
  const LinkLenResult r = fit_lengths(lengths, n / 2, kHistogramBins);
  CellResult out;
  out.add("exponent", r.fit.exponent);
  out.add("exponent_r2", r.fit.r2);
  out.add("corrected_slope", r.corrected.slope);
  out.add("mean_length", r.mean_length);
  out.add("samples", static_cast<double>(r.samples));
  return out;
}

}  // namespace sssw::analysis
