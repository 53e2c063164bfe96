#include "routing/greedy.hpp"

#include <algorithm>
#include <vector>

#include "util/check.hpp"

namespace sssw::routing {

std::size_t ring_rank_distance(std::size_t a, std::size_t b, std::size_t n) noexcept {
  const std::size_t direct = a > b ? a - b : b - a;
  return direct < n - direct ? direct : n - direct;
}

std::size_t clockwise_distance(std::size_t a, std::size_t b, std::size_t n) noexcept {
  return b >= a ? b - a : n - (a - b);
}

namespace {

/// `metric` on an n-ring as a distance functor for greedy_route_metric.
auto ring_metric(Metric metric, std::size_t n) {
  return [metric, n](graph::Vertex from, graph::Vertex to) {
    return metric == Metric::kClockwise ? clockwise_distance(from, to, n)
                                        : ring_rank_distance(from, to, n);
  };
}

}  // namespace

RouteResult greedy_route(const graph::Digraph& graph, graph::Vertex source,
                         graph::Vertex target, std::size_t max_hops, Metric metric) {
  const std::size_t n = graph.vertex_count();
  SSSW_CHECK(source < n && target < n);
  return greedy_route_metric(graph, source, target, max_hops, ring_metric(metric, n));
}

RouteResult greedy_route_lookahead(const graph::Digraph& graph, graph::Vertex source,
                                   graph::Vertex target, std::size_t max_hops,
                                   Metric metric) {
  const std::size_t n = graph.vertex_count();
  SSSW_CHECK(source < n && target < n);
  const auto ring = ring_metric(metric, n);
  const auto distance = [&](graph::Vertex from) { return ring(from, target); };
  RouteResult result;
  std::vector<bool> visited(n, false);
  graph::Vertex current = source;
  visited[current] = true;
  while (current != target) {
    if (result.hops >= max_hops) return result;
    graph::Vertex best = current;
    std::size_t best_score = distance(current);
    std::size_t best_direct = best_score;
    for (const graph::Vertex next : graph.out_neighbors(current)) {
      if (visited[next]) continue;
      if (next == target) {
        best = next;
        best_score = 0;
        break;
      }
      // Score: the closest this neighbour can get us in one more hop.
      std::size_t score = distance(next);
      for (const graph::Vertex two_hop : graph.out_neighbors(next))
        score = std::min(score, distance(two_hop));
      const std::size_t direct = distance(next);
      if (score < best_score || (score == best_score && direct < best_direct)) {
        best = next;
        best_score = score;
        best_direct = direct;
      }
    }
    if (best == current) return result;  // stuck: all progress is visited
    current = best;
    visited[current] = true;
    ++result.hops;
  }
  result.success = true;
  return result;
}

RoutingStats evaluate_routing(const graph::Digraph& graph, util::Rng& rng,
                              std::size_t pairs, std::size_t max_hops, Metric metric) {
  return evaluate_pairs(graph, rng, pairs,
                        [&](graph::Vertex source, graph::Vertex target) {
                          return greedy_route(graph, source, target, max_hops, metric);
                        });
}

RoutingStats evaluate_routing_lookahead(const graph::Digraph& graph, util::Rng& rng,
                                        std::size_t pairs, std::size_t max_hops,
                                        Metric metric) {
  return evaluate_pairs(graph, rng, pairs,
                        [&](graph::Vertex source, graph::Vertex target) {
                          return greedy_route_lookahead(graph, source, target,
                                                        max_hops, metric);
                        });
}

}  // namespace sssw::routing
