// Tests for §IV.G (join/leave): E6's and E7's drivers through their sweep
// cells (e6-churn, e7-storm), and repeated and overlapping churn on the
// network itself.
#include <gtest/gtest.h>

#include "analysis/convergence.hpp"
#include "core/invariants.hpp"
#include "core/network.hpp"
#include "support/cells.hpp"
#include "util/rng.hpp"

namespace sssw::analysis {
namespace {

SweepCell churn_cell(std::size_t n, std::size_t trials, std::uint64_t seed) {
  SweepCell cell = small_cell("e6-churn", "", n, trials);
  cell.seed = seed;
  return cell;
}

TEST(Join, RecoversAndIsCheap) {
  const Metrics m = run_cell(churn_cell(64, 6, 10));
  EXPECT_EQ(metric(m, "join_recovered"), 1.0);
  // Theorem 4.24: polylog steps.  ln²(64) ≈ 17; anything near n (64) or
  // above would mean linear-time integration — the bound we must beat.
  EXPECT_LT(metric(m, "join_rounds_mean"), 32.0);
  EXPECT_GT(metric(m, "join_rounds_mean"), 0.0);
}

TEST(Leave, RecoversWithHighProbability) {
  // The 4n burn-in spreads the lrls so one crosses the gap.
  const Metrics m = run_cell(churn_cell(64, 6, 20));
  EXPECT_GE(metric(m, "leave_recovered"), 0.99);
  EXPECT_LT(metric(m, "leave_rounds_mean"), 64.0);
}

TEST(Join, CostGrowsSlowlyWithN) {
  // Polylog scaling: doubling n four times should far less than double the
  // join cost each time.  We compare n=32 vs n=256: ln²(256)/ln²(32) ≈ 2.6,
  // while linear scaling would give 8×.
  const double small_cost =
      metric(run_cell(churn_cell(32, 8, 30)), "join_rounds_mean");
  const double large_cost =
      metric(run_cell(churn_cell(256, 8, 30)), "join_rounds_mean");
  ASSERT_GT(small_cost, 0.0);
  EXPECT_LT(large_cost / small_cost, 5.0);
}

TEST(Churn, RepeatedJoinLeaveKeepsNetworkHealthy) {
  util::Rng rng(42);
  core::SmallWorldNetwork net = core::make_stable_ring(core::random_ids(32, rng));
  net.run_rounds(128);
  for (int wave = 0; wave < 5; ++wave) {
    // One join...
    sim::Id fresh;
    do {
      fresh = rng.uniform();
    } while (fresh == 0.0 || net.engine().contains(fresh));
    const auto ids = net.engine().id_span();
    ASSERT_TRUE(net.join(fresh, ids[rng.below(ids.size())]));
    ASSERT_TRUE(net.run_until_sorted_ring(20000).has_value()) << "wave " << wave;
    // ... then one leave.
    const auto current = net.engine().id_span();
    ASSERT_TRUE(net.leave(current[rng.below(current.size())]));
    ASSERT_TRUE(net.run_until_sorted_ring(20000).has_value()) << "wave " << wave;
  }
  EXPECT_EQ(net.size(), 32u);
}

TEST(Churn, ZeroTrialsYieldEmptySummaries) {
  const Metrics m = run_cell(churn_cell(16, 0, 1));
  EXPECT_EQ(metric(m, "join_recovered"), 0.0);
  EXPECT_EQ(metric(m, "join_rounds_mean"), 0.0);
}

// --- overlapping churn (E7) --------------------------------------------------

/// Fires `events` joins and leaves at `network`, `interval` rounds apart,
/// without waiting for recovery: every `join_every`-th event (from the
/// first) is a join at a random contact, the others are random leaves.
/// Returns how many of them the network accepted.
std::size_t storm(core::SmallWorldNetwork& network, util::Rng& rng,
                  std::size_t events, std::size_t interval,
                  std::size_t join_every = 2) {
  std::size_t accepted = 0;
  for (std::size_t event = 0; event < events; ++event) {
    if (event % join_every == 0) {
      sim::Id fresh;
      do {
        fresh = rng.uniform();
      } while (fresh == 0.0 || network.engine().contains(fresh));
      const auto ids = network.engine().id_span();
      accepted += network.join(fresh, ids[rng.below(ids.size())]);
    } else {
      const auto ids = network.engine().id_span();
      accepted += network.leave(ids[rng.below(ids.size())]);
    }
    network.run_rounds(interval);
  }
  return accepted;
}

TEST(ChurnStorm, SurvivesModerateChurn) {
  SweepCell cell = small_cell("e7-storm", "interval=8", 64, 1);
  cell.seed = 11;
  const Metrics m = run_cell(cell);
  EXPECT_EQ(metric(m, "survived"), 1.0);
  EXPECT_GT(metric(m, "msgs_per_node_round"), 1.0);
}

TEST(ChurnStorm, LeaveHeavyStormUsuallySurvives) {
  // Three leaves to every join, faster than recovery: the w.h.p. caveat of
  // Thm 4.24 in action.
  int survived = 0;
  for (std::uint64_t seed = 100; seed < 103; ++seed) {
    core::SmallWorldNetwork network = stabilized_network(64, seed, 256);
    util::Rng rng(seed);
    storm(network, rng, 16, 10, /*join_every=*/4);
    survived += core::cc_weakly_connected(network.engine()) &&
                network.run_until_sorted_ring(round_budget(network.size(), {}))
                    .has_value();
  }
  EXPECT_GE(survived, 2);
}

TEST(ChurnStorm, DetectorKeepsProbingThroughTheStorm) {
  // E7 counts a storm's messages against a copy of the engine's counts; the
  // round clock, which also drives the detector's probe timers, never goes
  // back.  So with the detector on, its pings and pongs add to the storm's
  // traffic however long the burn-in was.  Every join and leave of the
  // storm is accepted either way.
  double rate[2] = {};
  for (const bool detector : {false, true}) {
    core::Config config;
    config.detector.enabled = detector;
    core::SmallWorldNetwork network = stabilized_network(64, 7, 256, config);
    util::Rng rng(7);
    const std::uint64_t sent_before = network.engine().counters().total_sent();
    EXPECT_EQ(storm(network, rng, 16, 4), 16u) << "detector " << detector;
    EXPECT_EQ(network.size(), 64u);
    // Messages per node and round over the storm's 16 × 4 rounds.
    rate[detector] =
        static_cast<double>(network.engine().counters().total_sent() - sent_before) /
        64.0 / 64.0;
  }
  EXPECT_GT(rate[1], rate[0] + 0.5);
}

TEST(ChurnStorm, DeterministicGivenSeed) {
  const SweepCell cell = small_cell("e7-storm", "interval=4", 32);
  EXPECT_EQ(run_cell(cell), run_cell(cell));
}

}  // namespace
}  // namespace sssw::analysis
