// greedy.hpp — greedy ring routing over a positioned digraph.
//
// The navigability measure for every model in experiment E5: at each step,
// move to the out-neighbour whose ring rank is closest to the target's;
// fail if no neighbour is strictly closer.  Vertex index == ring rank for
// every graph produced by topology/ and core::views (IdIndex order).
#pragma once

#include <cstddef>

#include "graph/digraph.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace sssw::routing {

struct RouteResult {
  bool success = false;
  std::size_t hops = 0;
};

/// Distance notion used by the greedy rule.  Symmetric ring distance is the
/// natural metric for bidirectional small-world rings; Chord's fingers only
/// point clockwise, so its greedy routing uses clockwise distance (as in the
/// original Chord lookup procedure).
enum class Metric : std::uint8_t { kRingSymmetric, kClockwise };

/// Ring distance between ranks a and b on an n-ring.
std::size_t ring_rank_distance(std::size_t a, std::size_t b, std::size_t n) noexcept;

/// Clockwise (one-directional) distance from rank a to rank b on an n-ring.
std::size_t clockwise_distance(std::size_t a, std::size_t b, std::size_t n) noexcept;

/// Greedy-routes from `source` to `target`; gives up after `max_hops` or at
/// a local minimum (no strictly closer neighbour).
RouteResult greedy_route(const graph::Digraph& graph, graph::Vertex source,
                         graph::Vertex target, std::size_t max_hops,
                         Metric metric = Metric::kRingSymmetric);

struct RoutingStats {
  util::Summary hops;      ///< over successful routes
  double success_rate = 0; ///< fraction of sampled pairs that completed
  std::size_t pairs = 0;
};

/// Routes `pairs` uniformly random (source, target) pairs.
RoutingStats evaluate_routing(const graph::Digraph& graph, util::Rng& rng,
                              std::size_t pairs, std::size_t max_hops,
                              Metric metric = Metric::kRingSymmetric);

/// Same, using greedy_route_lookahead.
RoutingStats evaluate_routing_lookahead(const graph::Digraph& graph, util::Rng& rng,
                                        std::size_t pairs, std::size_t max_hops,
                                        Metric metric = Metric::kRingSymmetric);

/// Greedy routing with one-hop lookahead (neighbour-of-neighbour, as used by
/// Manku et al. to improve small-world routing): each step moves to the
/// out-neighbour whose own best neighbour is closest to the target, never
/// revisiting a vertex.  More robust than plain greedy on damaged graphs at
/// the cost of scanning two-hop neighbourhoods.
RouteResult greedy_route_lookahead(const graph::Digraph& graph, graph::Vertex source,
                                   graph::Vertex target, std::size_t max_hops,
                                   Metric metric = Metric::kRingSymmetric);

/// Generic greedy routing under an arbitrary distance functor
/// `distance(vertex, target) -> std::size_t` — used by the 2-D torus
/// experiments and any future geometry.
template <typename DistanceFn>
RouteResult greedy_route_metric(const graph::Digraph& graph, graph::Vertex source,
                                graph::Vertex target, std::size_t max_hops,
                                DistanceFn&& distance) {
  RouteResult result;
  graph::Vertex current = source;
  while (current != target) {
    if (result.hops >= max_hops) return result;
    std::size_t best_distance = distance(current, target);
    graph::Vertex best = current;
    for (const graph::Vertex next : graph.out_neighbors(current)) {
      const std::size_t d = distance(next, target);
      if (d < best_distance) {
        best_distance = d;
        best = next;
      }
    }
    if (best == current) return result;  // local minimum
    current = best;
    ++result.hops;
  }
  result.success = true;
  return result;
}

}  // namespace sssw::routing
