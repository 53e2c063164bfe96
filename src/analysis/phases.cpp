#include "analysis/phases.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <optional>

#include "analysis/convergence.hpp"
#include "analysis/drivers.hpp"
#include "util/thread_pool.hpp"

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

// --- E1b: phase timeline (the §IV proof structure) -------------------------

CellResult run_phases(const SweepCell& cell, obs::Registry*) {
  /// first_reached[p] = first round at which phase >= p held (nullopt if
  /// never within the budget), indexed by core::Phase values.  Entries
  /// below kSortedList are upper bounds (PhaseClassifier's backoff).
  using Timeline = std::array<std::optional<std::uint64_t>, 6>;
  core::NetworkOptions options;
  options.protocol = ablation_config(cell);
  options.scheduler = cell.scheduler;
  const std::size_t budget = cell_budget(cell);
  const auto timelines = util::run_trials<Timeline>(
      cell.trials, cell.seed, [&](std::size_t, std::uint64_t seed) {
        core::SmallWorldNetwork network =
            initial_network(cell.shape, cell.n, seed, options);
        Timeline first_reached;
        PhaseClassifier classifier;
        const auto record = [&](std::uint64_t round) {
          const auto phase =
              static_cast<std::size_t>(classifier.classify(network, round));
          // A phase subsumes all earlier ones; fill every level reached.
          for (std::size_t p = 0; p <= phase; ++p)
            if (!first_reached[p].has_value()) first_reached[p] = round;
          return phase == static_cast<std::size_t>(core::Phase::kSmallWorld);
        };
        if (record(0)) return first_reached;
        for (std::size_t round = 1; round <= budget; ++round) {
          network.run_rounds(1);
          if (record(network.engine().round())) break;
        }
        return first_reached;
      });

  const core::Phase tracked[] = {core::Phase::kListConnected,
                                 core::Phase::kSortedList,
                                 core::Phase::kSortedRing,
                                 core::Phase::kSmallWorld};
  const char* names[] = {"list_connected_mean", "sorted_list_mean",
                         "sorted_ring_mean", "small_world_mean"};
  CellResult out;
  for (std::size_t i = 0; i < std::size(tracked); ++i) {
    double sum = 0;
    std::size_t count = 0;
    for (const Timeline& first_reached : timelines) {
      if (const auto round = first_reached[static_cast<std::size_t>(tracked[i])]) {
        sum += static_cast<double>(*round);
        ++count;
      }
    }
    out.add(names[i], count > 0 ? sum / static_cast<double>(count) : -1.0);
  }
  std::size_t completed = 0;
  for (const Timeline& first_reached : timelines)
    if (first_reached[static_cast<std::size_t>(core::Phase::kSmallWorld)]) ++completed;
  out.add("completed", fraction(completed, cell.trials));
  return out;
}

}  // namespace sssw::analysis
