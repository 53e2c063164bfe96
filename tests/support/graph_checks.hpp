// graph_checks.hpp — graph measures the tests use to check the topology
// generators and the Def. 4.2 views: BFS distances, strong connectivity,
// diameter, average path length and clustering.  No experiment reports
// them, so they live with the tests rather than in src/graph/;
// tests/test_graph_checks.cpp is their own unit test.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/traversal.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sssw::graph {

/// Directed BFS distances from `source` (kUnreachable where no path exists).
inline std::vector<std::uint32_t> bfs_distances(const Digraph& graph, Vertex source) {
  SSSW_CHECK(source < graph.vertex_count());
  std::vector<std::uint32_t> dist(graph.vertex_count(), kUnreachable);
  std::deque<Vertex> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    const Vertex v = queue.front();
    queue.pop_front();
    for (const Vertex next : graph.out_neighbors(v)) {
      if (dist[next] == kUnreachable) {
        dist[next] = dist[v] + 1;
        queue.push_back(next);
      }
    }
  }
  return dist;
}

/// The graph with every edge reversed.
inline Digraph reversed(const Digraph& graph) {
  Digraph rev(graph.vertex_count());
  for (Vertex from = 0; from < graph.vertex_count(); ++from)
    for (const Vertex to : graph.out_neighbors(from)) rev.add_edge(to, from);
  return rev;
}

/// The underlying undirected view: for each edge (u,v) both u→v and v→u,
/// deduplicated.
inline Digraph undirected(const Digraph& graph) {
  Digraph sym(graph.vertex_count());
  for (Vertex from = 0; from < graph.vertex_count(); ++from) {
    for (const Vertex to : graph.out_neighbors(from)) {
      sym.add_edge_unique(from, to);
      sym.add_edge_unique(to, from);
    }
  }
  return sym;
}

/// True iff every vertex reaches every other along directed edges.
inline bool is_strongly_connected(const Digraph& graph) {
  if (graph.vertex_count() <= 1) return true;
  const auto forward = bfs_distances(graph, 0);
  for (const std::uint32_t d : forward)
    if (d == kUnreachable) return false;
  const auto backward = bfs_distances(reversed(graph), 0);
  for (const std::uint32_t d : backward)
    if (d == kUnreachable) return false;
  return true;
}

/// Exact directed diameter via all-pairs BFS; O(V·(V+E)).  Returns
/// kUnreachable if some pair is unreachable.
inline std::uint32_t exact_diameter(const Digraph& graph) {
  std::uint32_t diameter = 0;
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    const auto dist = bfs_distances(graph, v);
    for (const std::uint32_t d : dist) {
      if (d == kUnreachable) return kUnreachable;
      diameter = std::max(diameter, d);
    }
  }
  return diameter;
}

/// Lower-bound diameter estimate by repeated double-sweep BFS from `sweeps`
/// random starts.  Much cheaper than exact for big graphs.
inline std::uint32_t estimate_diameter(const Digraph& graph, util::Rng& rng,
                                       int sweeps = 4) {
  if (graph.vertex_count() == 0) return 0;
  std::uint32_t best = 0;
  Vertex start = static_cast<Vertex>(rng.below(graph.vertex_count()));
  for (int s = 0; s < sweeps; ++s) {
    const auto dist = bfs_distances(graph, start);
    Vertex farthest = start;
    std::uint32_t far_dist = 0;
    for (Vertex v = 0; v < graph.vertex_count(); ++v) {
      if (dist[v] != kUnreachable && dist[v] > far_dist) {
        far_dist = dist[v];
        farthest = v;
      }
    }
    best = std::max(best, far_dist);
    start = farthest;  // double-sweep: restart from the eccentric vertex
  }
  return best;
}

/// Average shortest-path length over `samples` random reachable ordered
/// pairs (exact over all pairs if samples == 0).  Unreachable pairs are
/// skipped and counted in `unreachable`.
struct PathLengthStats {
  double average = 0.0;
  double max = 0.0;
  std::size_t pairs = 0;
  std::size_t unreachable = 0;
};

inline PathLengthStats average_path_length(const Digraph& graph, util::Rng& rng,
                                           std::size_t samples = 0) {
  PathLengthStats stats;
  const std::size_t n = graph.vertex_count();
  if (n < 2) return stats;

  double sum = 0.0;
  if (samples == 0) {
    for (Vertex s = 0; s < n; ++s) {
      const auto dist = bfs_distances(graph, s);
      for (Vertex t = 0; t < n; ++t) {
        if (t == s) continue;
        if (dist[t] == kUnreachable) {
          ++stats.unreachable;
        } else {
          sum += dist[t];
          stats.max = std::max(stats.max, static_cast<double>(dist[t]));
          ++stats.pairs;
        }
      }
    }
  } else {
    // Sample sources; reuse each BFS for a random target to amortise.
    for (std::size_t i = 0; i < samples; ++i) {
      const auto s = static_cast<Vertex>(rng.below(n));
      auto t = static_cast<Vertex>(rng.below(n - 1));
      if (t >= s) ++t;
      const auto dist = bfs_distances(graph, s);
      if (dist[t] == kUnreachable) {
        ++stats.unreachable;
      } else {
        sum += dist[t];
        stats.max = std::max(stats.max, static_cast<double>(dist[t]));
        ++stats.pairs;
      }
    }
  }
  if (stats.pairs > 0) stats.average = sum / static_cast<double>(stats.pairs);
  return stats;
}

/// Global clustering coefficient of the undirected view: mean over vertices
/// of (#edges among neighbours) / (deg·(deg−1)/2); vertices with deg < 2
/// contribute 0 (Watts–Strogatz convention).
inline double clustering_coefficient(const Digraph& graph) {
  const Digraph sym = undirected(graph);
  const std::size_t n = sym.vertex_count();
  if (n == 0) return 0.0;

  double total = 0.0;
  std::vector<bool> is_neighbor(n, false);
  for (Vertex v = 0; v < n; ++v) {
    auto neighbors = sym.out_neighbors(v);
    std::vector<Vertex> unique;
    unique.reserve(neighbors.size());
    for (const Vertex u : neighbors)
      if (u != v) unique.push_back(u);
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
    const std::size_t deg = unique.size();
    if (deg < 2) continue;
    for (const Vertex u : unique) is_neighbor[u] = true;
    std::size_t links = 0;
    for (const Vertex u : unique)
      for (const Vertex w : sym.out_neighbors(u))
        if (w != u && is_neighbor[w]) ++links;
    for (const Vertex u : unique) is_neighbor[u] = false;
    // Each neighbour-pair edge was counted twice (u→w and w→u both present
    // in the undirected view).
    total += static_cast<double>(links) / 2.0 /
             (static_cast<double>(deg) * static_cast<double>(deg - 1) / 2.0);
  }
  return total / static_cast<double>(n);
}

}  // namespace sssw::graph
