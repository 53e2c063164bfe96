// dot.hpp — Graphviz DOT export, behind sssw_sim's `dot FILE` command.
#pragma once

#include <string>

#include "graph/digraph.hpp"

namespace sssw::graph {

struct DotOptions {
  /// Render as circular layout hint.
  bool circo = false;
};

std::string to_dot(const Digraph& graph, const DotOptions& options = {});

}  // namespace sssw::graph
