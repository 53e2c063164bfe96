// Tests for graph/digraph.
#include "graph/digraph.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sssw::graph {
namespace {

TEST(Digraph, StartsEmpty) {
  Digraph g;
  EXPECT_EQ(g.vertex_count(), 0u);
  EXPECT_EQ(g.edge_count(), 0u);
}

TEST(Digraph, AddEdgeIsDirected) {
  Digraph g(3);
  g.add_edge(0, 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(1, 0));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Digraph, ParallelEdgesKept) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.out_degree(0), 2u);
}

TEST(Digraph, AddEdgeUniqueDedupes) {
  Digraph g(2);
  EXPECT_TRUE(g.add_edge_unique(0, 1));
  EXPECT_FALSE(g.add_edge_unique(0, 1));
  EXPECT_EQ(g.edge_count(), 1u);
}

TEST(Digraph, OutNeighbors) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 3);
  const auto neighbors = g.out_neighbors(0);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0], 1u);
  EXPECT_EQ(neighbors[1], 3u);
  EXPECT_TRUE(g.out_neighbors(2).empty());
}

TEST(Digraph, WithoutVerticesReindexes) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  std::vector<bool> removed{false, true, false, false};
  const Digraph sub = g.without_vertices(removed);
  EXPECT_EQ(sub.vertex_count(), 3u);
  // Only 2→3 survives (as 1→2); edges through vertex 1 vanish.
  EXPECT_EQ(sub.edge_count(), 1u);
  EXPECT_TRUE(sub.has_edge(1, 2));
}

TEST(Digraph, WithoutVerticesRemoveNone) {
  Digraph g(2);
  g.add_edge(0, 1);
  const Digraph sub = g.without_vertices({false, false});
  EXPECT_EQ(sub.vertex_count(), 2u);
  EXPECT_TRUE(sub.has_edge(0, 1));
}

TEST(Digraph, WithoutVerticesRemoveAll) {
  Digraph g(2);
  g.add_edge(0, 1);
  const Digraph sub = g.without_vertices({true, true});
  EXPECT_EQ(sub.vertex_count(), 0u);
  EXPECT_EQ(sub.edge_count(), 0u);
}

}  // namespace
}  // namespace sssw::graph
