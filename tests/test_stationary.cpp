// Tests for topology/stationary: the Phase-4 stationary-law surrogate.
#include "topology/stationary.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/linklen.hpp"
#include "graph/metrics.hpp"
#include "graph/traversal.hpp"
#include "support/graph_checks.hpp"
#include "routing/greedy.hpp"

namespace sssw::topology {
namespace {

TEST(StationaryCdf, NormalizedAndMonotone) {
  const auto cdf = build_cfl_stationary_cdf(200, 0.1);
  ASSERT_EQ(cdf.size(), 200u);
  EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
}

TEST(StationaryCdf, HeavierEpsilonShortensLinks) {
  // Larger ε puts more mass on short distances: CDF at d = 4 is larger.
  const auto gentle = build_cfl_stationary_cdf(256, 0.1);
  const auto harsh = build_cfl_stationary_cdf(256, 1.5);
  EXPECT_LT(gentle[3], harsh[3]);
}

TEST(StationaryRing, StructureAndConnectivity) {
  util::Rng rng(1);
  const auto g = make_stationary_smallworld_ring(128, rng);
  EXPECT_EQ(g.vertex_count(), 128u);
  for (graph::Vertex i = 0; i < 128; ++i) {
    EXPECT_TRUE(g.has_edge(i, (i + 1) % 128));
    EXPECT_TRUE(g.has_edge(i, (i + 127) % 128));
    EXPECT_LE(g.out_degree(i), 3u);
  }
  EXPECT_TRUE(graph::is_strongly_connected(g));
}

TEST(StationaryRing, TinyGraphsSafe) {
  util::Rng rng(2);
  EXPECT_EQ(make_stationary_smallworld_ring(0, rng).vertex_count(), 0u);
  EXPECT_EQ(make_stationary_smallworld_ring(1, rng).edge_count(), 0u);
  EXPECT_TRUE(graph::is_strongly_connected(make_stationary_smallworld_ring(3, rng)));
}

TEST(StationaryRing, SampledLengthsMatchTheLaw) {
  // Collect the long-link lengths and fit: must land in the same band as
  // the measured CFL process (E3).
  util::Rng rng(3);
  const std::size_t n = 512;
  const auto g = make_stationary_smallworld_ring(n, rng);
  std::vector<std::size_t> lengths;
  for (graph::Vertex i = 0; i < n; ++i) {
    for (const graph::Vertex to : g.out_neighbors(i)) {
      const std::size_t direct = to > i ? to - i : i - to;
      const std::size_t d = std::min(direct, n - direct);
      if (d > 1) lengths.push_back(d);  // skip the two ring edges
    }
  }
  EXPECT_GT(lengths.size(), n / 3);
  const auto fit = analysis::fit_lengths(lengths, n / 2, 16);
  EXPECT_LT(fit.fit.exponent, -0.9);
  EXPECT_GT(fit.fit.exponent, -2.3);
}

TEST(StationaryRing, NavigableByGreedyRouting) {
  util::Rng rng(4);
  const std::size_t n = 1024;
  const auto g = make_stationary_smallworld_ring(n, rng);
  util::Rng eval(5);
  const auto stats = routing::evaluate_routing(g, eval, 200, n);
  EXPECT_EQ(stats.success_rate, 1.0);
  // Far better than the n/4 = 256 ring average; polylog-ish in practice.
  EXPECT_LT(stats.hops.mean, 100.0);
}

TEST(StationaryRing, MultipleLinksRaiseDegree) {
  util::Rng rng(6);
  StationaryOptions options;
  options.links_per_node = 3;
  const auto g = make_stationary_smallworld_ring(256, rng, options);
  EXPECT_GT(graph::degree_stats(g).mean, 4.0);
}

}  // namespace
}  // namespace sssw::topology
