// Tests for topology/torus2d and greedy routing under its metric: the 2-D
// substrate of the paper's §V future-work direction.
#include "topology/torus2d.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "routing/greedy.hpp"
#include "support/graph_checks.hpp"

namespace sssw::topology {
namespace {

/// The torus metric as a greedy_route_metric distance functor.
auto metric_of(const Torus2d& torus) {
  return [&torus](graph::Vertex a, graph::Vertex b) { return torus.distance(a, b); };
}

TEST(Torus2d, VertexPointRoundTrip) {
  const Torus2d torus(8);
  for (graph::Vertex v = 0; v < torus.vertex_count(); ++v)
    EXPECT_EQ(torus.vertex_of(torus.point_of(v)), v);
}

TEST(Torus2d, DistanceWrapsBothDimensions) {
  const Torus2d torus(10);
  const auto a = torus.vertex_of({0, 0});
  EXPECT_EQ(torus.distance(a, torus.vertex_of({1, 0})), 1u);
  EXPECT_EQ(torus.distance(a, torus.vertex_of({9, 0})), 1u);   // x wrap
  EXPECT_EQ(torus.distance(a, torus.vertex_of({0, 9})), 1u);   // y wrap
  EXPECT_EQ(torus.distance(a, torus.vertex_of({5, 5})), 10u);  // antipode
  EXPECT_EQ(torus.distance(a, torus.vertex_of({3, 8})), 5u);   // 3 + 2
  EXPECT_EQ(torus.distance(a, a), 0u);
}

TEST(Torus2d, DistanceIsSymmetric) {
  const Torus2d torus(7);
  util::Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const auto a = static_cast<graph::Vertex>(rng.below(torus.vertex_count()));
    const auto b = static_cast<graph::Vertex>(rng.below(torus.vertex_count()));
    EXPECT_EQ(torus.distance(a, b), torus.distance(b, a));
  }
}

TEST(Torus2d, NeighborsAreAtDistanceOne) {
  const Torus2d torus(6);
  for (graph::Vertex v = 0; v < torus.vertex_count(); ++v) {
    for (const graph::Vertex next : torus.neighbors(v)) {
      EXPECT_EQ(torus.distance(v, next), 1u);
      EXPECT_NE(next, v);
    }
  }
}

TEST(TorusLattice, FourRegularAndConnected) {
  const auto g = make_torus_lattice(8);
  EXPECT_EQ(g.vertex_count(), 64u);
  for (graph::Vertex v = 0; v < 64; ++v) EXPECT_EQ(g.out_degree(v), 4u);
  EXPECT_TRUE(graph::is_strongly_connected(g));
}

TEST(TorusLattice, DiameterIsSideApprox) {
  // Torus diameter = 2·⌊side/2⌋.
  EXPECT_EQ(graph::exact_diameter(make_torus_lattice(8)), 8u);
  EXPECT_EQ(graph::exact_diameter(make_torus_lattice(9)), 8u);
}

TEST(Kleinberg2d, AddsLongLinks) {
  util::Rng rng(2);
  const auto g = make_kleinberg_torus(16, rng);
  double extra = 0;
  for (graph::Vertex v = 0; v < g.vertex_count(); ++v) {
    EXPECT_GE(g.out_degree(v), 4u);
    EXPECT_LE(g.out_degree(v), 5u);
    extra += static_cast<double>(g.out_degree(v) - 4);
  }
  // With α = 2 about a third of sampled targets land at distance 1 and
  // dedup against the lattice edge, so the mean extra degree is ~0.6.
  EXPECT_GT(extra / static_cast<double>(g.vertex_count()), 0.5);
  EXPECT_TRUE(graph::is_strongly_connected(g));
}

TEST(Kleinberg2d, NavigableExponentRoutesWell) {
  util::Rng rng(3);
  const std::size_t side = 24;
  const Torus2d torus(side);
  const auto navigable = make_kleinberg_torus(side, rng, {.long_links_per_node = 1,
                                                          .exponent = 2.0});
  util::Rng eval(4);
  const auto stats = routing::evaluate_routing_metric(navigable, eval, 200,
                                                      side * side, metric_of(torus));
  EXPECT_EQ(stats.success_rate, 1.0);
  // Lattice-only greedy averages ~side/2 = 12; harmonic links must beat it.
  EXPECT_LT(stats.hops.mean, 10.0);
}

TEST(Kleinberg2d, KleinbergExponentTheoremShape) {
  // Kleinberg (2000): in k = 2 dimensions greedy routing is polylog exactly
  // at exponent 2.  At simulation scale the α = 0 (uniform) regime has not
  // separated yet (side^{2/3} ≈ ln² side until side ≫ 10³), so the robust
  // observable is the other flank of the U-curve: α = 2 clearly beats the
  // over-localized α = 4 (whose links are almost always lattice-length) and
  // the bare lattice.
  const std::size_t side = 32;
  const Torus2d torus(side);
  util::Rng g1(5), g2(6), eval(7);
  const auto harmonic = make_kleinberg_torus(side, g1, {.long_links_per_node = 1,
                                                        .exponent = 2.0});
  const auto localized = make_kleinberg_torus(side, g2, {.long_links_per_node = 1,
                                                         .exponent = 4.0});
  const auto good = routing::evaluate_routing_metric(harmonic, eval, 300,
                                                     side * side, metric_of(torus));
  const auto bad = routing::evaluate_routing_metric(localized, eval, 300,
                                                    side * side, metric_of(torus));
  const auto lattice = routing::evaluate_routing_metric(
      make_torus_lattice(side), eval, 300, side * side, metric_of(torus));
  EXPECT_LT(good.hops.mean, bad.hops.mean);
  EXPECT_LT(good.hops.mean, 0.8 * lattice.hops.mean);
}

TEST(TorusRouting, LatticeOnlyIsManhattan) {
  const std::size_t side = 9;
  const Torus2d torus(side);
  const auto g = make_torus_lattice(side);
  const auto a = torus.vertex_of({1, 1});
  const auto b = torus.vertex_of({4, 7});
  const auto route = routing::greedy_route_metric(g, a, b, 100, metric_of(torus));
  EXPECT_TRUE(route.success);
  EXPECT_EQ(route.hops, torus.distance(a, b));
}

TEST(TorusRouting, SelfRouteIsZeroHops) {
  const Torus2d torus(5);
  const auto g = make_torus_lattice(5);
  const auto route = routing::greedy_route_metric(g, 7, 7, 10, metric_of(torus));
  EXPECT_TRUE(route.success);
  EXPECT_EQ(route.hops, 0u);
}

}  // namespace
}  // namespace sssw::topology
