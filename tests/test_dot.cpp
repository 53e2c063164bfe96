// Tests for graph/dot export.
#include "graph/dot.hpp"

#include <gtest/gtest.h>

namespace sssw::graph {
namespace {

TEST(Dot, EmitsVerticesAndEdges) {
  Digraph g(2);
  g.add_edge(0, 1);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("digraph sssw {"), std::string::npos);
  EXPECT_NE(dot.find("n0;"), std::string::npos);
  EXPECT_NE(dot.find("n1;"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1;"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(Dot, CircoLayoutHint) {
  DotOptions options;
  options.circo = true;
  EXPECT_NE(to_dot(Digraph(1), options).find("layout=circo;"), std::string::npos);
}

TEST(Dot, EmptyGraphStillValid) {
  const std::string dot = to_dot(Digraph(0));
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("}"), std::string::npos);
}

}  // namespace
}  // namespace sssw::graph
