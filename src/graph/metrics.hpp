// metrics.hpp — degree statistics of a digraph.
//
// E9 and A5 report the mean out-degree of the overlays they compare.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/digraph.hpp"

namespace sssw::graph {

/// Out-degree distribution statistics.
struct DegreeStats {
  double mean = 0.0;
  double max = 0.0;
  double min = 0.0;
  std::vector<std::size_t> histogram;  // histogram[d] = #vertices with out-degree d
};

DegreeStats degree_stats(const Digraph& graph);

}  // namespace sssw::graph
