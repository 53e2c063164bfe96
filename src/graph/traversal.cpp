#include "graph/traversal.hpp"

#include <algorithm>

namespace sssw::graph {

UnionFind::UnionFind(std::size_t n)
    : parent_(n), rank_(n, 0), sets_(n) {
  for (std::uint32_t i = 0; i < n; ++i) parent_[i] = i;
}

std::uint32_t UnionFind::find(std::uint32_t x) noexcept {
  while (parent_[x] != x) {
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::unite(std::uint32_t x, std::uint32_t y) noexcept {
  std::uint32_t rx = find(x);
  std::uint32_t ry = find(y);
  if (rx == ry) return false;
  if (rank_[rx] < rank_[ry]) std::swap(rx, ry);
  parent_[ry] = rx;
  if (rank_[rx] == rank_[ry]) ++rank_[rx];
  --sets_;
  return true;
}

Components weak_components(const Digraph& graph) {
  UnionFind uf(graph.vertex_count());
  for (Vertex from = 0; from < graph.vertex_count(); ++from)
    for (const Vertex to : graph.out_neighbors(from)) uf.unite(from, to);

  Components comps;
  comps.label.assign(graph.vertex_count(), 0);
  std::vector<std::uint32_t> root_label(graph.vertex_count(), kUnreachable);
  for (Vertex v = 0; v < graph.vertex_count(); ++v) {
    const std::uint32_t root = uf.find(v);
    if (root_label[root] == kUnreachable)
      root_label[root] = static_cast<std::uint32_t>(comps.count++);
    comps.label[v] = root_label[root];
  }
  return comps;
}

bool is_weakly_connected(const Digraph& graph) {
  if (graph.vertex_count() <= 1) return true;
  return weak_components(graph).count == 1;
}

std::size_t largest_weak_component(const Digraph& graph) {
  if (graph.vertex_count() == 0) return 0;
  const Components comps = weak_components(graph);
  std::vector<std::size_t> sizes(comps.count, 0);
  for (const std::uint32_t label : comps.label) ++sizes[label];
  std::size_t best = 0;
  for (const std::size_t size : sizes) best = std::max(best, size);
  return best;
}

}  // namespace sssw::graph
