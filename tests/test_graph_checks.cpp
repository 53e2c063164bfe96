// Tests for tests/support/graph_checks.hpp: BFS, strong connectivity,
// reversal, the undirected view, diameter, path length and clustering.
#include "support/graph_checks.hpp"

#include <gtest/gtest.h>

namespace sssw::graph {
namespace {

Digraph chain(std::size_t n) {
  Digraph g(n);
  for (Vertex i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  return g;
}

Digraph directed_cycle(std::size_t n) {
  Digraph g(n);
  for (Vertex i = 0; i < n; ++i) g.add_edge(i, static_cast<Vertex>((i + 1) % n));
  return g;
}

Digraph bidirectional_ring(std::size_t n) {
  Digraph g(n);
  for (Vertex i = 0; i < n; ++i) {
    g.add_edge(i, static_cast<Vertex>((i + 1) % n));
    g.add_edge(i, static_cast<Vertex>((i + n - 1) % n));
  }
  return g;
}

TEST(Diameter, DirectedCycle) {
  EXPECT_EQ(exact_diameter(directed_cycle(7)), 6u);
}

TEST(Diameter, BidirectionalRing) {
  EXPECT_EQ(exact_diameter(bidirectional_ring(8)), 4u);
  EXPECT_EQ(exact_diameter(bidirectional_ring(9)), 4u);
}

TEST(Diameter, DisconnectedIsUnreachable) {
  Digraph g(3);
  g.add_edge(0, 1);
  EXPECT_EQ(exact_diameter(g), kUnreachable);
}

TEST(Diameter, EstimateIsLowerBoundAndTight) {
  util::Rng rng(1);
  const Digraph ring = bidirectional_ring(64);
  const std::uint32_t estimate = estimate_diameter(ring, rng, 6);
  EXPECT_LE(estimate, 32u);
  EXPECT_GE(estimate, 28u);  // double sweep nails rings
}

TEST(PathLength, ExactOnDirectedCycle) {
  util::Rng rng(1);
  const PathLengthStats stats = average_path_length(directed_cycle(5), rng, 0);
  // Distances from each node: 1+2+3+4 over 4 pairs → mean 2.5.
  EXPECT_DOUBLE_EQ(stats.average, 2.5);
  EXPECT_EQ(stats.pairs, 20u);
  EXPECT_EQ(stats.unreachable, 0u);
  EXPECT_EQ(stats.max, 4.0);
}

TEST(PathLength, SampledIsClose) {
  util::Rng rng(7);
  const Digraph ring = bidirectional_ring(32);
  const PathLengthStats exact = average_path_length(ring, rng, 0);
  const PathLengthStats sampled = average_path_length(ring, rng, 500);
  EXPECT_NEAR(sampled.average, exact.average, 1.0);
}

TEST(PathLength, CountsUnreachable) {
  Digraph g(3);
  g.add_edge(0, 1);
  util::Rng rng(1);
  const PathLengthStats stats = average_path_length(g, rng, 0);
  EXPECT_EQ(stats.pairs, 1u);        // only 0→1 reachable
  EXPECT_EQ(stats.unreachable, 5u);  // the other ordered pairs
}

TEST(Clustering, TriangleIsOne) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_DOUBLE_EQ(clustering_coefficient(g), 1.0);
}

TEST(Clustering, StarIsZero) {
  Digraph g(5);
  for (Vertex i = 1; i < 5; ++i) g.add_edge(0, i);
  EXPECT_DOUBLE_EQ(clustering_coefficient(g), 0.0);
}

TEST(Clustering, RingLatticeK4) {
  // In a k=4 ring lattice each node's 4 neighbours share 3 of the 6 possible
  // edges → C = 1/2 (classic Watts–Strogatz value for k=4).
  const std::size_t n = 20;
  Digraph g(n);
  for (Vertex i = 0; i < n; ++i) {
    g.add_edge(i, static_cast<Vertex>((i + 1) % n));
    g.add_edge(i, static_cast<Vertex>((i + 2) % n));
  }
  EXPECT_NEAR(clustering_coefficient(g), 0.5, 1e-9);
}

TEST(Clustering, LowDegreeVerticesContributeZero) {
  Digraph g(2);
  g.add_edge(0, 1);
  EXPECT_DOUBLE_EQ(clustering_coefficient(g), 0.0);
}

TEST(Bfs, DistancesOnChain) {
  const Digraph g = chain(5);
  const auto dist = bfs_distances(g, 0);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(dist[i], i);
}

TEST(Bfs, UnreachableMarked) {
  Digraph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[2], kUnreachable);
}

TEST(Bfs, DirectionMatters) {
  const Digraph g = chain(3);
  const auto dist = bfs_distances(g, 2);
  EXPECT_EQ(dist[2], 0u);
  EXPECT_EQ(dist[0], kUnreachable);
  EXPECT_EQ(dist[1], kUnreachable);
}

TEST(Bfs, ShortestNotFirstFound) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(0, 3);  // shortcut
  EXPECT_EQ(bfs_distances(g, 0)[3], 1u);
}

TEST(StrongConnectivity, ChainIsNotStrong) {
  EXPECT_FALSE(is_strongly_connected(chain(3)));
}

TEST(StrongConnectivity, CycleIsStrong) {
  Digraph g(4);
  for (Vertex i = 0; i < 4; ++i) g.add_edge(i, (i + 1) % 4);
  EXPECT_TRUE(is_strongly_connected(g));
}

TEST(StrongConnectivity, SingletonIsStrong) {
  EXPECT_TRUE(is_strongly_connected(Digraph(1)));
}

TEST(Digraph, Reversed) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  const Digraph rev = reversed(g);
  EXPECT_TRUE(rev.has_edge(1, 0));
  EXPECT_TRUE(rev.has_edge(2, 1));
  EXPECT_FALSE(rev.has_edge(0, 1));
  EXPECT_EQ(rev.edge_count(), 2u);
}

TEST(Digraph, UndirectedSymmetrizes) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // both directions present: must not duplicate
  g.add_edge(1, 2);
  const Digraph sym = undirected(g);
  EXPECT_TRUE(sym.has_edge(0, 1));
  EXPECT_TRUE(sym.has_edge(1, 0));
  EXPECT_TRUE(sym.has_edge(2, 1));
  EXPECT_EQ(sym.edge_count(), 4u);
}

}  // namespace
}  // namespace sssw::graph
