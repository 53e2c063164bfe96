#include "graph/dot.hpp"

#include <sstream>

namespace sssw::graph {

std::string to_dot(const Digraph& graph, const DotOptions& options) {
  std::ostringstream out;
  out << "digraph sssw {\n";
  if (options.circo) out << "  layout=circo;\n";
  for (Vertex v = 0; v < graph.vertex_count(); ++v) out << "  n" << v << ";\n";
  for (Vertex v = 0; v < graph.vertex_count(); ++v)
    for (const Vertex to : graph.out_neighbors(v))
      out << "  n" << v << " -> n" << to << ";\n";
  out << "}\n";
  return out.str();
}

}  // namespace sssw::graph
