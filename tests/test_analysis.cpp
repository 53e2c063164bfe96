// Tests for E1's and E9's drivers, through their sweep cells
// (e1-convergence, e9-robustness), and for the measures E9 is built from.
#include <gtest/gtest.h>

#include "graph/traversal.hpp"
#include "routing/greedy.hpp"
#include "support/cells.hpp"
#include "topology/chord.hpp"
#include "util/rng.hpp"

namespace sssw::analysis {
namespace {

using topology::InitialShape;

SweepCell convergence_cell(InitialShape shape, std::size_t n, std::size_t trials,
                           std::uint64_t seed) {
  SweepCell cell = small_cell("e1-convergence", "", n, trials);
  cell.shape = shape;
  cell.seed = seed;
  return cell;
}

TEST(MeasureConvergence, RandomChainConverges) {
  const Metrics m = run_cell(convergence_cell(InitialShape::kRandomChain, 32, 4, 50));
  EXPECT_EQ(metric(m, "converged"), 1.0);
  EXPECT_GT(metric(m, "list_rounds_mean"), 0.0);
  EXPECT_GT(metric(m, "msgs_per_node_mean"), 0.0);
}

TEST(MeasureConvergence, SortedRingConvergesInstantly) {
  const Metrics m = run_cell(convergence_cell(InitialShape::kSortedRing, 32, 3, 1));
  EXPECT_EQ(metric(m, "converged"), 1.0);
  EXPECT_EQ(metric(m, "list_rounds_mean"), 0.0);
  EXPECT_EQ(metric(m, "ring_extra_mean"), 0.0);
}

TEST(MeasureConvergence, RespectsRoundBudget) {
  SweepCell cell = convergence_cell(InitialShape::kStar, 64, 2, 1);
  cell.max_rounds = 1;  // impossible
  EXPECT_EQ(metric(run_cell(cell), "converged"), 0.0);
}

TEST(MeasureConvergence, DeterministicGivenSeeds) {
  const SweepCell cell = convergence_cell(InitialShape::kRandomTree, 24, 3, 77);
  EXPECT_EQ(run_cell(cell), run_cell(cell));
}

TEST(Robustness, NoFailuresIsFullyConnected) {
  // With nothing removed, Chord is one component and routes clockwise
  // everywhere.
  const auto g = topology::make_chord_ring(128);
  EXPECT_EQ(graph::largest_weak_component(g), 128u);
  util::Rng rng(1);
  EXPECT_EQ(routing::evaluate_routing(g, rng, 64, 128, routing::Metric::kClockwise)
                .success_rate,
            1.0);
}

TEST(Robustness, DegradesWithFailures) {
  const Metrics m = run_cell("e9-robustness", "model=kleinberg", 256, 3);
  EXPECT_GE(metric(m, "routed_10"), metric(m, "routed_50"));
  EXPECT_GE(metric(m, "lcc_10"), metric(m, "lcc_50") - 1e-9);
}

TEST(Robustness, SweepReturnsOnePointPerFraction) {
  // The degree, then a component share and a routing success per failure
  // fraction: the columns of EXPERIMENTS.md's E9 table.
  const Metrics m = run_cell("e9-robustness", "model=chord", 64);
  std::vector<std::string> names;
  for (const auto& [name, value] : m) names.push_back(name);
  EXPECT_EQ(names, (std::vector<std::string>{"degree", "lcc_10", "routed_10",
                                             "lcc_20", "routed_20", "lcc_30",
                                             "routed_30", "lcc_50", "routed_50"}));
}

}  // namespace
}  // namespace sssw::analysis
