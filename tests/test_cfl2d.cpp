// Tests for topology/cfl2d: move-and-forget on the 2-D torus.
#include "topology/cfl2d.hpp"

#include <gtest/gtest.h>

#include "analysis/linklen.hpp"
#include "routing/greedy.hpp"
#include "support/graph_checks.hpp"

namespace sssw::topology {
namespace {

TEST(Cfl2d, TokensStartAtHome) {
  Cfl2dProcess process(8, 0.1, util::Rng(1));
  for (graph::Vertex v = 0; v < 64; ++v) EXPECT_EQ(process.token_position(v), v);
}

TEST(Cfl2d, StepMovesDiagonally) {
  // Each step moves ±1 in *each* dimension, so L1 displacement per step is
  // exactly 2 (before any forget).
  Cfl2dProcess process(16, 0.1, util::Rng(2));
  process.step();
  for (graph::Vertex v = 0; v < process.size(); ++v) {
    EXPECT_EQ(process.torus().distance(v, process.token_position(v)), 2u);
  }
  EXPECT_EQ(process.steps_taken(), 1u);
}

TEST(Cfl2d, ForgetsEventually) {
  Cfl2dProcess process(8, 0.1, util::Rng(3));
  process.run(300);
  EXPECT_GT(process.total_forgets(), 0u);
}

TEST(Cfl2d, GraphIsLatticePlusLinks) {
  Cfl2dProcess process(10, 0.1, util::Rng(4));
  process.run(30);
  const auto g = process.graph();
  EXPECT_EQ(g.vertex_count(), 100u);
  for (graph::Vertex v = 0; v < 100; ++v) EXPECT_GE(g.out_degree(v), 4u);
  EXPECT_TRUE(graph::is_strongly_connected(g));
}

TEST(Cfl2d, DeterministicGivenSeed) {
  Cfl2dProcess a(12, 0.1, util::Rng(5));
  Cfl2dProcess b(12, 0.1, util::Rng(5));
  a.run(100);
  b.run(100);
  for (graph::Vertex v = 0; v < a.size(); ++v)
    EXPECT_EQ(a.token_position(v), b.token_position(v));
}

TEST(Cfl2d, LinkLengthsFollowTwoHarmonicShape) {
  // In 2-D the stationary law is P(target) ∝ 1/d² over the ball, i.e.
  // P(length = d) ∝ N(d)/d² ≈ c/d (up to polylog).  Sampled lengths must be
  // heavy-tailed with log-log slope in the 1-harmonic-like band, NOT the
  // ~uniform (slope ≈ +1 via N(d) ∝ d) of a pure diffusive cloud.
  const std::size_t side = 24;
  Cfl2dProcess process(side, 0.1, util::Rng(6));
  process.run(side * side);
  std::vector<std::size_t> lengths;
  for (int snap = 0; snap < 200; ++snap) {
    process.run(side / 2);
    for (const std::size_t d : process.link_lengths())
      if (d >= 1) lengths.push_back(d);
  }
  const auto fit = analysis::fit_lengths(lengths, side, 12);
  EXPECT_GT(fit.samples, 10000u);
  EXPECT_LT(fit.fit.exponent, -0.5);
  EXPECT_GT(fit.fit.exponent, -2.6);
}

TEST(Cfl2d, StationaryGraphIsNavigable) {
  const std::size_t side = 24;
  Cfl2dProcess process(side, 0.1, util::Rng(7));
  process.run(side * side);
  const auto g = process.graph();
  util::Rng eval(8);
  const auto stats = routing::evaluate_routing_metric(
      g, eval, 200, side * side,
      [&](graph::Vertex a, graph::Vertex b) { return process.torus().distance(a, b); });
  EXPECT_EQ(stats.success_rate, 1.0);
  // Beats the pure-lattice average of ~side/2.
  EXPECT_LT(stats.hops.mean, static_cast<double>(side) / 2.0);
}

}  // namespace
}  // namespace sssw::topology
