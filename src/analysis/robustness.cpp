// E9: resilience to random node failures.
//
// The paper's introduction claims small-world overlays are more robust than
// uniformly structured overlays (CAN/Pastry/Chord).  This driver removes a
// random fraction of nodes from a topology and measures (a) how much of the
// network stays weakly connected and (b) whether greedy routing still works
// among survivors.
#include <numeric>
#include <string>
#include <vector>

#include "analysis/drivers.hpp"
#include "graph/digraph.hpp"
#include "graph/metrics.hpp"
#include "graph/traversal.hpp"
#include "routing/greedy.hpp"
#include "topology/chord.hpp"
#include "topology/kleinberg.hpp"
#include "topology/stationary.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sssw::analysis {

CellResult run_robustness(const SweepCell& cell, obs::Registry*) {
  // Random survivor pairs routed per trial, each given as many hops as
  // there are survivors.
  constexpr std::size_t kRoutingPairs = 200;
  const std::string model = word_param(cell, "model");
  util::Rng build(cell.seed);
  // Chord routes clockwise; small-world rings route symmetrically.
  routing::Metric metric = routing::Metric::kRingSymmetric;
  graph::Digraph graph;
  if (model == "stationary") {
    graph = topology::make_stationary_smallworld_ring(cell.n, build);
  } else if (model == "chord") {
    graph = topology::make_chord_ring(cell.n);
    metric = routing::Metric::kClockwise;
  } else {
    // kleinberg4: four long links per node, between sssw's degree and Chord's.
    graph = topology::make_kleinberg_ring(
        cell.n, build, {.long_links_per_node = model == "kleinberg4" ? 4u : 1u});
  }
  CellResult out;
  out.add("degree", graph::degree_stats(graph).mean);

  const std::size_t n = graph.vertex_count();
  std::uint64_t seed = cell.seed;
  for (const int percent : {10, 20, 30, 50}) {
    // Each fraction averages `trials` random removals from a stream of its
    // own, so removals decorrelate across fractions.
    util::Rng rng(seed++);
    const auto kill_count =
        static_cast<std::size_t>(percent / 100.0 * static_cast<double>(n));
    util::Welford component, success;
    for (std::size_t trial = 0; trial < cell.trials; ++trial) {
      std::vector<graph::Vertex> order(n);
      std::iota(order.begin(), order.end(), 0);
      util::shuffle(order, rng);
      std::vector<bool> removed(n, false);
      for (std::size_t k = 0; k < kill_count; ++k) removed[order[k]] = true;

      // At most half the nodes fail, so at least two of n >= 4 survive.
      const graph::Digraph survivors = graph.without_vertices(removed);
      const std::size_t alive = survivors.vertex_count();
      component.add(static_cast<double>(graph::largest_weak_component(survivors)) /
                    static_cast<double>(alive));
      success.add(routing::evaluate_routing(survivors, rng, kRoutingPairs, alive,
                                            metric)
                      .success_rate);
    }
    out.add("lcc_" + std::to_string(percent), component.mean());
    out.add("routed_" + std::to_string(percent), success.mean());
  }
  return out;
}

}  // namespace sssw::analysis
