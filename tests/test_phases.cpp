// Tests for E1b's driver, through its sweep cell (e1b-phases): the first
// round at which each phase of §IV's proof holds.
#include <gtest/gtest.h>

#include "support/cells.hpp"

namespace sssw::analysis {
namespace {

using topology::InitialShape;

Metrics run_timeline(InitialShape shape, std::size_t n, std::uint64_t seed,
                     std::uint64_t max_rounds = 0) {
  SweepCell cell = small_cell("e1b-phases", "", n, 1);
  cell.shape = shape;
  cell.seed = seed;
  cell.max_rounds = max_rounds;
  return run_cell(cell);
}

TEST(PhaseTimeline, OrderedAndComplete) {
  const Metrics m = run_timeline(InitialShape::kRandomChain, 48, 3);
  ASSERT_EQ(metric(m, "completed"), 1.0);
  // Every phase was reached, in nondecreasing round order.
  double previous = 0;
  for (const char* phase : {"list_connected_mean", "sorted_list_mean",
                            "sorted_ring_mean", "small_world_mean"}) {
    EXPECT_GE(metric(m, phase), previous) << phase;
    previous = metric(m, phase);
  }
}

TEST(PhaseTimeline, StableStartSkipsStraightToRing) {
  const Metrics m = run_timeline(InitialShape::kSortedRing, 24, 5);
  EXPECT_EQ(metric(m, "sorted_ring_mean"), 0.0);
  // Small-world (every link forgotten once) still takes some rounds.
  ASSERT_EQ(metric(m, "completed"), 1.0);
  EXPECT_GT(metric(m, "small_world_mean"), 0.0);
}

TEST(PhaseTimeline, ListPhasePrecedesRingPhaseStrictlyForBridged) {
  const Metrics m = run_timeline(InitialShape::kBridgedChains, 64, 7);
  ASSERT_EQ(metric(m, "completed"), 1.0);
  EXPECT_LE(metric(m, "sorted_list_mean"), metric(m, "sorted_ring_mean"));
}

TEST(PhaseTimeline, RespectsRoundBudget) {
  const Metrics m = run_timeline(InitialShape::kStar, 64, 9, /*max_rounds=*/1);
  EXPECT_EQ(metric(m, "completed"), 0.0);
  EXPECT_EQ(metric(m, "small_world_mean"), -1.0);  // never reached
}

}  // namespace
}  // namespace sssw::analysis
