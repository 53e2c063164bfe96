#include "analysis/phases.hpp"

#include <algorithm>

#include "analysis/convergence.hpp"

namespace sssw::analysis {

core::Phase PhaseClassifier::classify(const core::SmallWorldNetwork& network,
                                      std::uint64_t round) {
  if (network.sorted_list()) {
    stride_ = 1;  // re-arm exact low checks in case churn drops us back
    next_low_check_ = round;
    if (network.sorted_ring())
      return network.tracker().all_forgot() ? core::Phase::kSmallWorld
                                            : core::Phase::kSortedRing;
    return core::Phase::kSortedList;
  }
  if (round >= next_low_check_) {
    const core::Phase phase = network.phase();  // BFS ladder
    stride_ = phase == last_low_ ? std::min(stride_ * 2, kStrideCap) : 1;
    last_low_ = phase;
    next_low_check_ = round + stride_;
    return phase;
  }
  return last_low_;
}

PhaseTimeline measure_phase_timeline(topology::InitialShape shape,
                                     const PhaseTimelineOptions& options) {
  core::NetworkOptions net_options;
  net_options.protocol = options.protocol;
  net_options.scheduler = options.scheduler;
  core::SmallWorldNetwork network =
      initial_network(shape, options.n, options.seed, net_options);

  PhaseTimeline timeline;
  PhaseClassifier classifier;
  const auto record = [&](std::uint64_t round) {
    const auto phase = static_cast<std::size_t>(classifier.classify(network, round));
    // A phase subsumes all earlier ones; fill every level reached.
    for (std::size_t p = 0; p <= phase; ++p)
      if (!timeline.first_reached[p].has_value()) timeline.first_reached[p] = round;
    return phase == static_cast<std::size_t>(core::Phase::kSmallWorld);
  };

  if (record(0)) return timeline;
  for (std::size_t round = 1; round <= options.max_rounds; ++round) {
    network.run_rounds(1);
    if (record(network.engine().round())) break;
  }
  return timeline;
}

}  // namespace sssw::analysis
