// digraph.hpp — a simple directed graph over dense vertex indices.
//
// All analysis (phase detection over the paper's CC/CP/LCC/LCP/RCC/RCP views,
// greedy routing, robustness experiments) runs on this representation.
// Vertices are 0..n-1; the mapping from protocol identifiers to indices lives
// in core/views.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sssw::graph {

using Vertex = std::uint32_t;

class Digraph {
 public:
  Digraph() = default;
  explicit Digraph(std::size_t vertex_count) : adjacency_(vertex_count) {}

  std::size_t vertex_count() const noexcept { return adjacency_.size(); }
  std::size_t edge_count() const noexcept { return edge_count_; }

  /// Adds a directed edge; parallel edges are kept (callers that need
  /// simple graphs use add_edge_unique).  Self-loops are allowed but ignored
  /// by the metrics that do not want them.
  void add_edge(Vertex from, Vertex to);

  /// Adds the edge only if not already present (linear scan of `from`'s
  /// list — adjacency lists here are short by construction).
  bool add_edge_unique(Vertex from, Vertex to);

  bool has_edge(Vertex from, Vertex to) const noexcept;

  std::span<const Vertex> out_neighbors(Vertex v) const noexcept {
    return adjacency_[v];
  }
  std::size_t out_degree(Vertex v) const noexcept { return adjacency_[v].size(); }

  /// Copy with the given vertices (and incident edges) removed; `removed`
  /// flags must have vertex_count() entries.  Remaining vertices are
  /// re-indexed densely, in their old order.
  Digraph without_vertices(const std::vector<bool>& removed) const;

 private:
  std::vector<std::vector<Vertex>> adjacency_;
  std::size_t edge_count_ = 0;
};

}  // namespace sssw::graph
