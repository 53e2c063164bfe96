#include "analysis/linklen.hpp"
#include <cmath>

#include "analysis/convergence.hpp"
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

LinkLenResult measure_cfl_linklen(const LinkLenOptions& options) {
  const std::size_t burn_in = options.burn_in == 0 ? 8 * options.n : options.burn_in;
  const std::size_t stride =
      options.stride == 0 ? std::max<std::size_t>(1, options.n / 8) : options.stride;

  topology::CflProcess process(options.n, options.epsilon, util::Rng(options.seed));
  process.run(burn_in);

  std::vector<std::size_t> lengths;
  lengths.reserve(options.snapshots * options.n);
  for (std::size_t snap = 0; snap < options.snapshots; ++snap) {
    process.run(stride);
    for (const std::size_t length : process.link_lengths())
      if (length >= 1) lengths.push_back(length);
  }
  return fit_lengths(lengths, options.n / 2, options.histogram_bins);
}

LinkLenResult measure_protocol_linklen(const LinkLenOptions& options,
                                       const core::Config& protocol) {
  const std::size_t burn_in = options.burn_in == 0 ? 8 * options.n : options.burn_in;
  const std::size_t stride =
      options.stride == 0 ? std::max<std::size_t>(1, options.n / 8) : options.stride;

  core::Config config = protocol;
  config.epsilon = options.epsilon;
  core::SmallWorldNetwork network =
      stabilized_network(options.n, options.seed, burn_in, config);
  std::vector<std::size_t> lengths;
  lengths.reserve(options.snapshots * options.n);
  for (std::size_t snap = 0; snap < options.snapshots; ++snap) {
    network.run_rounds(stride);
    for (const std::size_t length : network.lrl_lengths())
      if (length >= 1) lengths.push_back(length);
  }
  return fit_lengths(lengths, options.n / 2, options.histogram_bins);
}

}  // namespace sssw::analysis
