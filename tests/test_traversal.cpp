// Tests for graph/traversal: weak components, union-find.
#include "graph/traversal.hpp"

#include <gtest/gtest.h>

namespace sssw::graph {
namespace {

Digraph chain(std::size_t n) {
  Digraph g(n);
  for (Vertex i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

TEST(WeakConnectivity, DirectedChainIsWeaklyConnected) {
  EXPECT_TRUE(is_weakly_connected(chain(10)));
}

TEST(WeakConnectivity, TwoIslands) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_FALSE(is_weakly_connected(g));
}

TEST(WeakConnectivity, TrivialGraphs) {
  EXPECT_TRUE(is_weakly_connected(Digraph(0)));
  EXPECT_TRUE(is_weakly_connected(Digraph(1)));
  EXPECT_FALSE(is_weakly_connected(Digraph(2)));
}

TEST(WeakComponents, LabelsAndCount) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(3, 4);
  const Components comps = weak_components(g);
  EXPECT_EQ(comps.count, 3u);
  EXPECT_EQ(comps.label[0], comps.label[1]);
  EXPECT_EQ(comps.label[3], comps.label[4]);
  EXPECT_NE(comps.label[0], comps.label[2]);
  EXPECT_NE(comps.label[0], comps.label[3]);
}

TEST(LargestWeakComponent, PicksBiggest) {
  Digraph g(6);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(4, 5);
  EXPECT_EQ(largest_weak_component(g), 3u);
}

TEST(LargestWeakComponent, EmptyGraph) {
  EXPECT_EQ(largest_weak_component(Digraph(0)), 0u);
}

TEST(UnionFind, BasicMerging) {
  UnionFind uf(5);
  EXPECT_EQ(uf.set_count(), 5u);
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2));  // already together
  EXPECT_EQ(uf.set_count(), 3u);
  EXPECT_EQ(uf.find(0), uf.find(2));
  EXPECT_NE(uf.find(0), uf.find(3));
}

TEST(UnionFind, PathCompressionStaysCorrect) {
  UnionFind uf(100);
  for (std::uint32_t i = 0; i + 1 < 100; ++i) uf.unite(i, i + 1);
  EXPECT_EQ(uf.set_count(), 1u);
  for (std::uint32_t i = 0; i < 100; ++i) EXPECT_EQ(uf.find(i), uf.find(0));
}

}  // namespace
}  // namespace sssw::graph
