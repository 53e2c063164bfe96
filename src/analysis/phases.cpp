#include "analysis/phases.hpp"

#include <algorithm>

#include "analysis/convergence.hpp"
#include "core/network.hpp"

namespace sssw::analysis {

PhaseTimeline measure_phase_timeline(topology::InitialShape shape,
                                     const PhaseTimelineOptions& options) {
  core::NetworkOptions net_options;
  net_options.protocol = options.protocol;
  net_options.scheduler = options.scheduler;
  core::SmallWorldNetwork network =
      initial_network(shape, options.n, options.seed, net_options);

  PhaseTimeline timeline;
  // The ≥ sorted-list rungs are O(1) via the network's invariant tracker
  // and are checked every round (exact).  The connectivity rungs need BFS,
  // so while the network sits below the sorted-list phase the BFS check
  // backs off exponentially (stride doubles per unchanged answer, capped),
  // and skipped rounds report the last BFS classification.
  std::size_t stride = 1;
  std::uint64_t next_low_check = 0;
  auto last_low = core::Phase::kDisconnected;
  const std::size_t cap =
      options.connectivity_stride_cap > 0 ? options.connectivity_stride_cap : 1;
  const auto classify = [&](std::uint64_t round) {
    if (network.sorted_list()) {
      stride = 1;  // re-arm exact low checks in case churn drops us back
      next_low_check = round;
      if (network.sorted_ring())
        return network.tracker().all_forgot() ? core::Phase::kSmallWorld
                                              : core::Phase::kSortedRing;
      return core::Phase::kSortedList;
    }
    if (round >= next_low_check) {
      const core::Phase phase = network.phase();  // BFS ladder
      stride = phase == last_low ? std::min(stride * 2, cap) : 1;
      last_low = phase;
      next_low_check = round + stride;
      return phase;
    }
    return last_low;
  };
  const auto record = [&](std::uint64_t round) {
    const auto phase = static_cast<std::size_t>(classify(round));
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
