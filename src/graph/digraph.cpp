#include "graph/digraph.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace sssw::graph {

void Digraph::add_edge(Vertex from, Vertex to) {
  SSSW_DCHECK(from < adjacency_.size() && to < adjacency_.size());
  adjacency_[from].push_back(to);
  ++edge_count_;
}

bool Digraph::add_edge_unique(Vertex from, Vertex to) {
  if (has_edge(from, to)) return false;
  add_edge(from, to);
  return true;
}

bool Digraph::has_edge(Vertex from, Vertex to) const noexcept {
  const auto& list = adjacency_[from];
  return std::find(list.begin(), list.end(), to) != list.end();
}

Digraph Digraph::without_vertices(const std::vector<bool>& removed) const {
  SSSW_CHECK(removed.size() == vertex_count());
  std::vector<Vertex> new_of_old(vertex_count(), 0);
  std::size_t kept = 0;
  for (Vertex v = 0; v < vertex_count(); ++v)
    if (!removed[v]) new_of_old[v] = static_cast<Vertex>(kept++);
  Digraph sub(kept);
  for (Vertex from = 0; from < vertex_count(); ++from) {
    if (removed[from]) continue;
    for (const Vertex to : adjacency_[from])
      if (!removed[to]) sub.add_edge(new_of_old[from], new_of_old[to]);
  }
  return sub;
}

}  // namespace sssw::graph
