#include "graph/metrics.hpp"

#include <algorithm>

namespace sssw::graph {

DegreeStats degree_stats(const Digraph& graph) {
  DegreeStats stats;
  const std::size_t n = graph.vertex_count();
  if (n == 0) return stats;
  std::size_t max_deg = 0;
  std::size_t min_deg = graph.out_degree(0);
  double sum = 0.0;
  for (Vertex v = 0; v < n; ++v) {
    const std::size_t d = graph.out_degree(v);
    max_deg = std::max(max_deg, d);
    min_deg = std::min(min_deg, d);
    sum += static_cast<double>(d);
  }
  stats.mean = sum / static_cast<double>(n);
  stats.max = static_cast<double>(max_deg);
  stats.min = static_cast<double>(min_deg);
  stats.histogram.assign(max_deg + 1, 0);
  for (Vertex v = 0; v < n; ++v) ++stats.histogram[graph.out_degree(v)];
  return stats;
}

}  // namespace sssw::graph
