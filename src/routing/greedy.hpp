// greedy.hpp — greedy routing over a positioned digraph.
//
// The navigability measure of experiments E5, E9 and E11: at each step,
// move to the out-neighbour closest to the target; fail if no neighbour is
// strictly closer.  The plain walk is greedy_route_metric, over any distance
// function: the ring metrics below (vertex index == ring rank for every
// graph produced by topology/ and core::views, IdIndex order) or the 2-D
// torus metric (topology::Torus2d::distance).  E5 also runs the one-hop
// lookahead variant.
#pragma once

#include <cstddef>
#include <vector>

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

/// Greedy-routes from `source` to `target` under the distance functor
/// `distance(vertex, target) -> std::size_t`; gives up after `max_hops` or
/// at a local minimum (no strictly closer neighbour).
template <typename DistanceFn>
RouteResult greedy_route_metric(const graph::Digraph& graph, graph::Vertex source,
                                graph::Vertex target, std::size_t max_hops,
                                DistanceFn&& distance) {
  RouteResult result;
  graph::Vertex current = source;
  while (current != target) {
    if (result.hops >= max_hops) return result;  // gave up
    std::size_t best_distance = distance(current, target);
    graph::Vertex best = current;
    for (const graph::Vertex next : graph.out_neighbors(current)) {
      const std::size_t d = distance(next, target);
      if (d < best_distance) {
        best_distance = d;
        best = next;
      }
    }
    if (best == current) return result;  // local minimum: greedy failure
    current = best;
    ++result.hops;
  }
  result.success = true;
  return result;
}

/// greedy_route_metric under the ring metric `metric`.
RouteResult greedy_route(const graph::Digraph& graph, graph::Vertex source,
                         graph::Vertex target, std::size_t max_hops,
                         Metric metric = Metric::kRingSymmetric);

/// Greedy routing with one-hop lookahead (neighbour-of-neighbour, as used by
/// Manku et al. to improve small-world routing): each step moves to the
/// out-neighbour whose own best neighbour is closest to the target, never
/// revisiting a vertex.  More robust than plain greedy on damaged graphs at
/// the cost of scanning two-hop neighbourhoods.
RouteResult greedy_route_lookahead(const graph::Digraph& graph, graph::Vertex source,
                                   graph::Vertex target, std::size_t max_hops,
                                   Metric metric = Metric::kRingSymmetric);

struct RoutingStats {
  util::Summary hops;      ///< over successful routes
  double success_rate = 0; ///< fraction of sampled pairs that completed
  std::size_t pairs = 0;
};

/// Routes `pairs` uniformly random ordered pairs of distinct vertices through
/// `route(source, target) -> RouteResult`.  Each pair draws source =
/// below(n), then target = below(n − 1) shifted past the source; the E5, E9
/// and E11 tables depend on that order.
template <typename RouteFn>
RoutingStats evaluate_pairs(const graph::Digraph& graph, util::Rng& rng,
                            std::size_t pairs, RouteFn&& route) {
  RoutingStats stats;
  const std::size_t n = graph.vertex_count();
  if (n < 2) return stats;
  std::vector<double> hop_samples;
  hop_samples.reserve(pairs);
  std::size_t successes = 0;
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto source = static_cast<graph::Vertex>(rng.below(n));
    auto target = static_cast<graph::Vertex>(rng.below(n - 1));
    if (target >= source) ++target;
    const RouteResult result = route(source, target);
    if (result.success) {
      ++successes;
      hop_samples.push_back(static_cast<double>(result.hops));
    }
  }
  stats.pairs = pairs;
  stats.success_rate =
      pairs ? static_cast<double>(successes) / static_cast<double>(pairs) : 0.0;
  stats.hops = util::summarize(hop_samples);
  return stats;
}

/// evaluate_pairs over greedy_route_metric under `distance`.
template <typename DistanceFn>
RoutingStats evaluate_routing_metric(const graph::Digraph& graph, util::Rng& rng,
                                     std::size_t pairs, std::size_t max_hops,
                                     DistanceFn&& distance) {
  return evaluate_pairs(graph, rng, pairs,
                        [&](graph::Vertex source, graph::Vertex target) {
                          return greedy_route_metric(graph, source, target,
                                                     max_hops, distance);
                        });
}

/// evaluate_pairs over greedy_route under the ring metric `metric`.
RoutingStats evaluate_routing(const graph::Digraph& graph, util::Rng& rng,
                              std::size_t pairs, std::size_t max_hops,
                              Metric metric = Metric::kRingSymmetric);

/// Same, using greedy_route_lookahead.
RoutingStats evaluate_routing_lookahead(const graph::Digraph& graph, util::Rng& rng,
                                        std::size_t pairs, std::size_t max_hops,
                                        Metric metric = Metric::kRingSymmetric);

}  // namespace sssw::routing
