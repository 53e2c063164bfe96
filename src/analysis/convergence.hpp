// convergence.hpp — drivers for experiments E1/E2 (stabilization) and
// E6/E7 (join/leave recovery, §IV.G), and the stabilized-network builder
// every experiment that starts from the legal state shares.
#pragma once

#include <cstdint>
#include <optional>

#include "core/config.hpp"
#include "core/network.hpp"
#include "sim/scheduler.hpp"
#include "topology/initial_states.hpp"
#include "util/stats.hpp"

namespace sssw::analysis {

/// A sorted ring of n random ids (drawn from `seed`, which also seeds the
/// network) after exactly `burn_in_rounds` rounds of move-and-forget, so
/// long-range links have spread.  0 rounds means none.
core::SmallWorldNetwork stabilized_network(std::size_t n, std::uint64_t seed,
                                           std::size_t burn_in_rounds,
                                           const core::Config& protocol = {});

struct ConvergenceOptions {
  std::size_t n = 128;
  std::size_t trials = 8;
  std::uint64_t base_seed = 1;
  std::size_t max_rounds = 100000;
  core::Config protocol{};
  sim::SchedulerKind scheduler = sim::SchedulerKind::kSynchronous;
  topology::InitialStateOptions initial{};
};

struct ConvergenceResult {
  /// Rounds from the initial state to the sorted list (Def. 4.8).
  util::Summary list_rounds;
  /// Additional rounds from sorted list to sorted ring (Def. 4.17).
  util::Summary ring_extra_rounds;
  /// Messages sent per node until the ring formed.
  util::Summary messages_per_node;
  /// Fraction of trials that reached the ring within max_rounds.
  double converged = 0.0;
};

ConvergenceResult measure_convergence(topology::InitialShape shape,
                                      const ConvergenceOptions& options);

struct ChurnOptions {
  std::size_t n = 128;
  std::size_t trials = 8;
  std::uint64_t base_seed = 1;
  /// Rounds of move-and-forget burn-in on the stable ring before the event,
  /// so long-range links are spread when the join/leave happens.
  std::size_t burn_in_rounds = 0;  // 0 → 4·n (≈ enough for every link to move)
  std::size_t max_recovery_rounds = 100000;
  core::Config protocol{};
};

struct ChurnResult {
  /// Rounds from the event until the sorted ring holds again.
  util::Summary recovery_rounds;
  /// Messages sent network-wide during recovery.
  util::Summary recovery_messages;
  double recovered = 0.0;  ///< fraction of trials that recovered in time
};

/// E6: a fresh node joins at a uniformly random contact of a stabilized ring.
ChurnResult measure_join(const ChurnOptions& options);

/// E7: a uniformly random node fail-stops out of a stabilized ring.
ChurnResult measure_leave(const ChurnOptions& options);

}  // namespace sssw::analysis
