// dot.hpp — Graphviz DOT export, behind sssw_sim's `dot FILE` command.
#pragma once

#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace sssw::graph {

struct DotOptions {
  std::string graph_name = "sssw";
  /// Optional per-vertex labels (defaults to the index).
  std::vector<std::string> labels;
  /// Render as circular layout hint.
  bool circo = false;
};

std::string to_dot(const Digraph& graph, const DotOptions& options = {});

}  // namespace sssw::graph
