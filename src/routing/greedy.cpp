#include "routing/greedy.hpp"

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

RouteResult greedy_route(const graph::Digraph& graph, graph::Vertex source,
                         graph::Vertex target, std::size_t max_hops, Metric metric) {
  const std::size_t n = graph.vertex_count();
  SSSW_CHECK(source < n && target < n);
  const auto distance = [&](std::size_t from) {
    return metric == Metric::kClockwise ? clockwise_distance(from, target, n)
                                        : ring_rank_distance(from, target, n);
  };
  RouteResult result;
  graph::Vertex current = source;
  while (current != target) {
    if (result.hops >= max_hops) return result;  // gave up
    std::size_t best_distance = distance(current);
    graph::Vertex best = current;
    for (const graph::Vertex next : graph.out_neighbors(current)) {
      const std::size_t d = distance(next);
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

RouteResult greedy_route_lookahead(const graph::Digraph& graph, graph::Vertex source,
                                   graph::Vertex target, std::size_t max_hops,
                                   Metric metric) {
  const std::size_t n = graph.vertex_count();
  SSSW_CHECK(source < n && target < n);
  const auto distance = [&](graph::Vertex from) {
    return metric == Metric::kClockwise ? clockwise_distance(from, target, n)
                                        : ring_rank_distance(from, target, n);
  };
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

namespace {

template <typename RouteFn>
RoutingStats evaluate_with(const graph::Digraph& graph, util::Rng& rng,
                           std::size_t pairs, RouteFn&& route_fn) {
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
    const RouteResult route = route_fn(source, target);
    if (route.success) {
      ++successes;
      hop_samples.push_back(static_cast<double>(route.hops));
    }
  }
  stats.pairs = pairs;
  stats.success_rate =
      pairs ? static_cast<double>(successes) / static_cast<double>(pairs) : 0.0;
  stats.hops = util::summarize(hop_samples);
  return stats;
}

}  // namespace

RoutingStats evaluate_routing(const graph::Digraph& graph, util::Rng& rng,
                              std::size_t pairs, std::size_t max_hops, Metric metric) {
  return evaluate_with(graph, rng, pairs,
                       [&](graph::Vertex source, graph::Vertex target) {
                         return greedy_route(graph, source, target, max_hops, metric);
                       });
}

RoutingStats evaluate_routing_lookahead(const graph::Digraph& graph, util::Rng& rng,
                                        std::size_t pairs, std::size_t max_hops,
                                        Metric metric) {
  return evaluate_with(graph, rng, pairs,
                       [&](graph::Vertex source, graph::Vertex target) {
                         return greedy_route_lookahead(graph, source, target,
                                                       max_hops, metric);
                       });
}

}  // namespace sssw::routing
