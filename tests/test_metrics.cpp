// Tests for graph/metrics: degree statistics.
#include "graph/metrics.hpp"

#include <gtest/gtest.h>

namespace sssw::graph {
namespace {

TEST(DegreeStats, Histogram) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 2);
  const DegreeStats stats = degree_stats(g);
  EXPECT_DOUBLE_EQ(stats.mean, 0.75);
  EXPECT_EQ(stats.max, 2.0);
  EXPECT_EQ(stats.min, 0.0);
  ASSERT_EQ(stats.histogram.size(), 3u);
  EXPECT_EQ(stats.histogram[0], 2u);  // vertices 2 and 3
  EXPECT_EQ(stats.histogram[1], 1u);  // vertex 1
  EXPECT_EQ(stats.histogram[2], 1u);  // vertex 0
}

TEST(DegreeStats, EmptyGraph) {
  const DegreeStats stats = degree_stats(Digraph(0));
  EXPECT_EQ(stats.mean, 0.0);
  EXPECT_TRUE(stats.histogram.empty());
}

}  // namespace
}  // namespace sssw::graph
