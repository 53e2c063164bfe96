// robustness.hpp — experiment E9: resilience to random node failures.
//
// The paper's introduction claims small-world overlays are more robust than
// uniformly structured overlays (CAN/Pastry/Chord).  This driver removes a
// random fraction of nodes from a topology and measures (a) how much of the
// network stays weakly connected and (b) whether greedy routing still works
// among survivors.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "routing/greedy.hpp"
#include "util/rng.hpp"

namespace sssw::analysis {

struct RobustnessPoint {
  double fail_fraction = 0.0;
  /// Largest weakly connected component as a fraction of the survivors.
  double largest_component = 0.0;
  /// Greedy routing success rate among random survivor pairs.
  double routing_success = 0.0;
  /// Mean hops over the successful routes.
  double mean_hops = 0.0;
};

struct RobustnessOptions {
  std::size_t trials = 4;
  /// Random survivor pairs routed per trial, each given as many hops as
  /// there are survivors.
  std::size_t routing_pairs = 128;
  std::uint64_t seed = 1;
  /// Chord routes clockwise; small-world rings route symmetrically.
  routing::Metric metric = routing::Metric::kRingSymmetric;
};

/// Evaluates one failure fraction, averaged over `trials` random removals.
RobustnessPoint measure_robustness(const graph::Digraph& graph, double fail_fraction,
                                   const RobustnessOptions& options);

/// Sweeps a list of failure fractions.
std::vector<RobustnessPoint> robustness_sweep(const graph::Digraph& graph,
                                              const std::vector<double>& fractions,
                                              const RobustnessOptions& options);

}  // namespace sssw::analysis
