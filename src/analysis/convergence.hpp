// convergence.hpp — drivers for experiments E1/E2 (stabilization) and
// E6/E7 (join/leave recovery, §IV.G), and the run steps every experiment
// shares: the from-scratch network, the stabilized network and the round
// budget.
#pragma once

#include <cstdint>
#include <optional>

#include "core/config.hpp"
#include "core/network.hpp"
#include "sim/scheduler.hpp"
#include "topology/initial_states.hpp"
#include "util/stats.hpp"

namespace sssw::analysis {

/// n random ids in the shape's initial state, registered with a fresh
/// network — the start of every "converge from scratch" run.  The ids and
/// then the shape are drawn from Rng(seed); `options.seed` is set to seed.
core::SmallWorldNetwork initial_network(topology::InitialShape shape,
                                        std::size_t n, std::uint64_t seed,
                                        core::NetworkOptions options = {});

/// A sorted ring of n random ids (drawn from `seed`, which also seeds the
/// network) after exactly `burn_in_rounds` rounds of move-and-forget, so
/// long-range links have spread.  0 rounds means none.
core::SmallWorldNetwork stabilized_network(std::size_t n, std::uint64_t seed,
                                           std::size_t burn_in_rounds,
                                           const core::Config& protocol = {});

/// The round budget of one run to the sorted ring: the 400n + 4000 rounds
/// the convergence property tests pin for every shape and scheduler,
/// stretched by the rounds a message may be held (1 + the fault plan's
/// extra delay + the oldest-last hold), plus the partition window, doubled
/// under message loss (loss only delays: pointers persist and SENDID
/// re-announces every round).
std::uint64_t round_budget(std::size_t n, const sim::EngineConfig& engine);

struct ConvergenceOptions {
  std::size_t n = 128;
  std::size_t trials = 8;
  std::uint64_t base_seed = 1;
  std::size_t max_rounds = 100000;
  core::Config protocol{};
  sim::SchedulerKind scheduler = sim::SchedulerKind::kSynchronous;
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
