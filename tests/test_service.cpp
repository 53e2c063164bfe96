// Tests for E1c's driver, through its sweep cell (e1c-service): routing
// quality during stabilization.
#include <gtest/gtest.h>

#include "support/cells.hpp"

namespace sssw::analysis {
namespace {

using topology::InitialShape;

Metrics run_service_curve(InitialShape shape, std::size_t n, std::uint64_t seed) {
  SweepCell cell = small_cell("e1c-service", "", n, 1);
  cell.shape = shape;
  cell.seed = seed;
  return run_cell(cell);
}

TEST(Service, CurveEndsAtFullServiceOnRing) {
  const Metrics m = run_service_curve(InitialShape::kStar, 48, 3);
  EXPECT_GT(metric(m, "ring_round"), 0.0);
  EXPECT_EQ(metric(m, "success_ring"), 1.0);
}

TEST(Service, SuccessImprovesOverall) {
  const Metrics m = run_service_curve(InitialShape::kRandomChain, 64, 5);
  // The ring's sample beats the very first one (a scrambled chain).
  EXPECT_GE(metric(m, "success_ring"), metric(m, "success_t0"));
}

TEST(Service, StableStartRoutesPerfectlyThroughout) {
  const Metrics m = run_service_curve(InitialShape::kScrambledLrl, 32, 11);
  EXPECT_EQ(metric(m, "success_t0"), 1.0);
  EXPECT_EQ(metric(m, "success_half"), 1.0);
  EXPECT_EQ(metric(m, "success_ring"), 1.0);
}

}  // namespace
}  // namespace sssw::analysis
