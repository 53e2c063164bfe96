// Tests for analysis/convergence and analysis/robustness.
#include <gtest/gtest.h>

#include "analysis/convergence.hpp"
#include "analysis/robustness.hpp"
#include "topology/chord.hpp"
#include "topology/kleinberg.hpp"

namespace sssw::analysis {
namespace {

TEST(MeasureConvergence, RandomChainConverges) {
  ConvergenceOptions options;
  options.n = 32;
  options.trials = 4;
  options.base_seed = 50;
  const ConvergenceResult result =
      measure_convergence(topology::InitialShape::kRandomChain, options);
  EXPECT_EQ(result.converged, 1.0);
  EXPECT_GT(result.list_rounds.mean, 0.0);
  EXPECT_GT(result.messages_per_node.mean, 0.0);
}

TEST(MeasureConvergence, SortedRingConvergesInstantly) {
  ConvergenceOptions options;
  options.n = 32;
  options.trials = 3;
  const ConvergenceResult result =
      measure_convergence(topology::InitialShape::kSortedRing, options);
  EXPECT_EQ(result.converged, 1.0);
  EXPECT_EQ(result.list_rounds.mean, 0.0);
  EXPECT_EQ(result.ring_extra_rounds.mean, 0.0);
}

TEST(MeasureConvergence, RespectsRoundBudget) {
  ConvergenceOptions options;
  options.n = 64;
  options.trials = 2;
  options.max_rounds = 1;  // impossible
  const ConvergenceResult result =
      measure_convergence(topology::InitialShape::kStar, options);
  EXPECT_EQ(result.converged, 0.0);
}

TEST(MeasureConvergence, DeterministicGivenSeeds) {
  ConvergenceOptions options;
  options.n = 24;
  options.trials = 3;
  options.base_seed = 77;
  const auto a = measure_convergence(topology::InitialShape::kRandomTree, options);
  const auto b = measure_convergence(topology::InitialShape::kRandomTree, options);
  EXPECT_EQ(a.list_rounds.mean, b.list_rounds.mean);
  EXPECT_EQ(a.messages_per_node.mean, b.messages_per_node.mean);
}

TEST(Robustness, NoFailuresIsFullyConnected) {
  const auto g = topology::make_chord_ring(128);
  RobustnessOptions options;
  options.trials = 2;
  options.routing_pairs = 64;
  options.metric = routing::Metric::kClockwise;  // Chord lookup semantics
  const RobustnessPoint point = measure_robustness(g, 0.0, options);
  EXPECT_EQ(point.largest_component, 1.0);
  EXPECT_EQ(point.routing_success, 1.0);
}

TEST(Robustness, DegradesWithFailures) {
  util::Rng rng(1);
  const auto g = topology::make_kleinberg_ring(256, rng);
  RobustnessOptions options;
  options.trials = 3;
  options.routing_pairs = 64;
  const RobustnessPoint light = measure_robustness(g, 0.05, options);
  const RobustnessPoint heavy = measure_robustness(g, 0.5, options);
  EXPECT_GE(light.routing_success, heavy.routing_success);
  EXPECT_GE(light.largest_component, heavy.largest_component - 1e-9);
}

TEST(Robustness, SweepReturnsOnePointPerFraction) {
  const auto g = topology::make_chord_ring(64);
  RobustnessOptions options;
  options.trials = 2;
  options.routing_pairs = 32;
  const auto points = robustness_sweep(g, {0.0, 0.1, 0.2}, options);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].fail_fraction, 0.0);
  EXPECT_EQ(points[2].fail_fraction, 0.2);
}

TEST(Robustness, EmptyGraphSafe) {
  RobustnessOptions options;
  const RobustnessPoint point = measure_robustness(graph::Digraph(0), 0.5, options);
  EXPECT_EQ(point.largest_component, 0.0);
}

}  // namespace
}  // namespace sssw::analysis
