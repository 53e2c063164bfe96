// Tests for analysis/phases and analysis/churn_storm.
#include <gtest/gtest.h>

#include "analysis/churn_storm.hpp"
#include "analysis/phases.hpp"

namespace sssw::analysis {
namespace {

using core::Phase;
using topology::InitialShape;

TEST(PhaseTimeline, OrderedAndComplete) {
  PhaseTimelineOptions options;
  options.n = 48;
  options.seed = 3;
  const PhaseTimeline timeline =
      measure_phase_timeline(InitialShape::kRandomChain, options);
  ASSERT_TRUE(timeline.completed());
  // Every phase was reached, in nondecreasing round order.
  std::uint64_t previous = 0;
  for (std::size_t p = 0; p < timeline.first_reached.size(); ++p) {
    ASSERT_TRUE(timeline.first_reached[p].has_value()) << "phase " << p;
    EXPECT_GE(*timeline.first_reached[p], previous);
    previous = *timeline.first_reached[p];
  }
}

TEST(PhaseTimeline, StableStartSkipsStraightToRing) {
  PhaseTimelineOptions options;
  options.n = 24;
  options.seed = 5;
  const PhaseTimeline timeline =
      measure_phase_timeline(InitialShape::kSortedRing, options);
  ASSERT_TRUE(timeline.at(Phase::kSortedRing).has_value());
  EXPECT_EQ(*timeline.at(Phase::kSortedRing), 0u);
  // Small-world (every link forgotten once) still takes some rounds.
  ASSERT_TRUE(timeline.completed());
  EXPECT_GT(*timeline.at(Phase::kSmallWorld), 0u);
}

TEST(PhaseTimeline, ListPhasePrecedesRingPhaseStrictlyForBridged) {
  PhaseTimelineOptions options;
  options.n = 64;
  options.seed = 7;
  const PhaseTimeline timeline =
      measure_phase_timeline(InitialShape::kBridgedChains, options);
  ASSERT_TRUE(timeline.completed());
  EXPECT_LE(*timeline.at(Phase::kSortedList), *timeline.at(Phase::kSortedRing));
}

TEST(PhaseTimeline, RespectsRoundBudget) {
  PhaseTimelineOptions options;
  options.n = 64;
  options.seed = 9;
  options.max_rounds = 1;
  const PhaseTimeline timeline =
      measure_phase_timeline(InitialShape::kStar, options);
  EXPECT_FALSE(timeline.completed());
  EXPECT_TRUE(timeline.first_reached[0].has_value());
}

TEST(ChurnStorm, SurvivesModerateChurn) {
  ChurnStormOptions options;
  options.n = 64;
  options.events = 20;
  options.event_interval = 8;
  options.seed = 11;
  const ChurnStormResult result = run_churn_storm(options);
  EXPECT_TRUE(result.survived);
  EXPECT_EQ(result.joins + result.leaves, 20u);
  EXPECT_GT(result.final_size, 40u);
  EXPECT_GT(result.messages_per_node_round, 1.0);
}

TEST(ChurnStorm, JoinOnlyStormGrowsNetwork) {
  ChurnStormOptions options;
  options.n = 32;
  options.events = 16;
  options.event_interval = 6;
  options.join_bias = 1.0;
  options.seed = 13;
  const ChurnStormResult result = run_churn_storm(options);
  EXPECT_TRUE(result.survived);
  EXPECT_EQ(result.joins, 16u);
  EXPECT_EQ(result.leaves, 0u);
  EXPECT_EQ(result.final_size, 48u);
}

TEST(ChurnStorm, LeaveHeavyStormUsuallySurvives) {
  // Leaves faster than recovery: the w.h.p. caveat of Thm 4.24 in action.
  int survived = 0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    ChurnStormOptions options;
    options.n = 64;
    options.events = 16;
    options.event_interval = 10;
    options.join_bias = 0.25;
    options.seed = 100 + seed;
    survived += run_churn_storm(options).survived;
  }
  EXPECT_GE(survived, 2);
}

TEST(ChurnStorm, DetectorKeepsProbingThroughTheStorm) {
  // The storm's message rate is counted against a copy of the engine's
  // counts; the round clock, which also drives the detector's probe timers,
  // never goes back.  So with the detector on, its pings and pongs add to
  // the storm's traffic however long the burn-in was.
  ChurnStormOptions options;
  options.n = 64;
  options.events = 16;
  options.event_interval = 4;
  options.burn_in_rounds = 256;
  options.seed = 7;
  const double off = run_churn_storm(options).messages_per_node_round;
  options.protocol.detector.enabled = true;
  const double on = run_churn_storm(options).messages_per_node_round;
  EXPECT_GT(on, off + 0.5);
}

TEST(ChurnStorm, DeterministicGivenSeed) {
  ChurnStormOptions options;
  options.n = 32;
  options.events = 10;
  options.seed = 17;
  const ChurnStormResult a = run_churn_storm(options);
  const ChurnStormResult b = run_churn_storm(options);
  EXPECT_EQ(a.survived, b.survived);
  EXPECT_EQ(a.quiesce_rounds, b.quiesce_rounds);
  EXPECT_EQ(a.final_size, b.final_size);
}

}  // namespace
}  // namespace sssw::analysis
