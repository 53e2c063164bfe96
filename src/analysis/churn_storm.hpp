// churn_storm.hpp — sustained, overlapping churn stress.
//
// §IV.G analyses one join/leave at a time; a real overlay takes hits while
// still digesting earlier ones.  This driver fires a join or leave every
// `event_interval` rounds WITHOUT waiting for recovery, then measures how
// long the network needs to quiesce back to the sorted ring once the storm
// stops — and whether it survived at all (a leave storm can, with small
// probability, disconnect the network; that is the w.h.p. caveat of
// Theorem 4.24 made measurable).
#pragma once

#include <cstdint>

#include "core/config.hpp"

namespace sssw::analysis {

struct ChurnStormOptions {
  std::size_t n = 128;             ///< initial network size
  std::size_t events = 50;         ///< total join/leave events
  std::size_t event_interval = 4;  ///< rounds between events (no waiting)
  double join_bias = 0.5;          ///< P(event is a join)
  std::uint64_t seed = 1;
  std::size_t burn_in_rounds = 0;  ///< 0 → 4·n
  core::Config protocol{};
};

struct ChurnStormResult {
  /// Sorted ring re-formed after the storm, within round_budget
  /// (convergence.hpp) of the network the storm left.
  bool survived = false;
  std::uint64_t quiesce_rounds = 0; ///< rounds from last event to sorted ring
  std::size_t final_size = 0;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  double messages_per_node_round = 0.0;  ///< over the storm window
};

ChurnStormResult run_churn_storm(const ChurnStormOptions& options);

}  // namespace sssw::analysis
