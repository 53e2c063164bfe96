// Tests for topology/{kleinberg,watts_strogatz,chord,cfl}: structural
// properties of the reference models.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/metrics.hpp"
#include "graph/traversal.hpp"
#include "support/graph_checks.hpp"
#include "topology/cfl.hpp"
#include "topology/chord.hpp"
#include "topology/kleinberg.hpp"
#include "topology/watts_strogatz.hpp"

namespace sssw::topology {
namespace {

TEST(HarmonicCdf, NormalizedAndMonotone) {
  const auto cdf = build_harmonic_cdf(100, 1.0);
  ASSERT_EQ(cdf.size(), 100u);
  EXPECT_DOUBLE_EQ(cdf.back(), 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) EXPECT_GE(cdf[i], cdf[i - 1]);
  // P(1) = 1/H_100 ≈ 0.193.
  EXPECT_NEAR(cdf[0], 1.0 / 5.187, 0.01);
}

TEST(HarmonicCdf, SamplerMatchesDistribution) {
  const auto cdf = build_harmonic_cdf(64, 1.0);
  util::Rng rng(1);
  std::vector<int> counts(65, 0);
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    const std::size_t d = sample_harmonic_distance(cdf, rng);
    ASSERT_GE(d, 1u);
    ASSERT_LE(d, 64u);
    ++counts[d];
  }
  // Empirical P(1)/P(2) should be ≈ 2, P(1)/P(4) ≈ 4.
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[2], 2.0, 0.3);
  EXPECT_NEAR(static_cast<double>(counts[1]) / counts[4], 4.0, 0.8);
}

TEST(Kleinberg, RingPlusLongLinks) {
  util::Rng rng(2);
  const auto g = make_kleinberg_ring(64, rng);
  EXPECT_EQ(g.vertex_count(), 64u);
  for (graph::Vertex i = 0; i < 64; ++i) {
    EXPECT_TRUE(g.has_edge(i, (i + 1) % 64));
    EXPECT_TRUE(g.has_edge(i, (i + 63) % 64));
    EXPECT_GE(g.out_degree(i), 2u);
    EXPECT_LE(g.out_degree(i), 3u);  // one long link, possibly deduped
  }
  EXPECT_TRUE(graph::is_strongly_connected(g));
}

TEST(Kleinberg, MultipleLongLinks) {
  util::Rng rng(3);
  KleinbergOptions options;
  options.long_links_per_node = 3;
  const auto g = make_kleinberg_ring(128, rng, options);
  const auto stats = graph::degree_stats(g);
  EXPECT_GT(stats.mean, 4.0);
  EXPECT_LE(stats.max, 5.0);
}

TEST(Kleinberg, TinyGraphsSafe) {
  util::Rng rng(4);
  EXPECT_EQ(make_kleinberg_ring(0, rng).vertex_count(), 0u);
  EXPECT_EQ(make_kleinberg_ring(1, rng).edge_count(), 0u);
  const auto pair = make_kleinberg_ring(2, rng);
  EXPECT_TRUE(pair.has_edge(0, 1));
}

TEST(Kleinberg, DiameterIsSmall) {
  util::Rng rng(5);
  const auto g = make_kleinberg_ring(512, rng);
  // ln(512) ≈ 6.2; small-world diameter is polylog, far below n/2 = 256.
  EXPECT_LT(graph::estimate_diameter(g, rng, 4), 60u);
}

TEST(WattsStrogatz, BetaZeroIsRegularLattice) {
  util::Rng rng(6);
  WattsStrogatzOptions options;
  options.k = 4;
  options.beta = 0.0;
  const auto g = make_watts_strogatz(100, rng, options);
  for (graph::Vertex i = 0; i < 100; ++i) {
    EXPECT_TRUE(g.has_edge(i, (i + 1) % 100));
    EXPECT_TRUE(g.has_edge(i, (i + 2) % 100));
  }
  EXPECT_NEAR(graph::clustering_coefficient(g), 0.5, 1e-9);
}

TEST(WattsStrogatz, SmallWorldRegime) {
  util::Rng rng(7);
  WattsStrogatzOptions regular{.k = 6, .beta = 0.0};
  WattsStrogatzOptions rewired{.k = 6, .beta = 0.1};
  const auto lattice = make_watts_strogatz(200, rng, regular);
  const auto sw = make_watts_strogatz(200, rng, rewired);
  util::Rng mrng(8);
  const auto lattice_path = graph::average_path_length(lattice, mrng, 400);
  const auto sw_path = graph::average_path_length(sw, mrng, 400);
  // The classic figure: path length collapses while clustering stays high.
  EXPECT_LT(sw_path.average, 0.65 * lattice_path.average);
  EXPECT_GT(graph::clustering_coefficient(sw),
            0.5 * graph::clustering_coefficient(lattice));
}

TEST(WattsStrogatz, StaysConnectedUnderModerateRewiring) {
  util::Rng rng(9);
  const auto g = make_watts_strogatz(256, rng, {.k = 4, .beta = 0.3});
  EXPECT_TRUE(graph::is_weakly_connected(g));
}

TEST(Chord, FingerTableDegrees) {
  const auto g = make_chord_ring(64);
  // Fingers: +1, +2, +4, ..., +32 → 6 distinct targets.
  for (graph::Vertex i = 0; i < 64; ++i) EXPECT_EQ(g.out_degree(i), 6u);
  EXPECT_TRUE(graph::is_strongly_connected(g));
}

TEST(Chord, LogarithmicDiameter) {
  const auto g = make_chord_ring(256);
  EXPECT_LE(graph::exact_diameter(g), 9u);  // ~log2(n) + 1
}

TEST(Chord, TinyGraphs) {
  EXPECT_EQ(make_chord_ring(0).vertex_count(), 0u);
  EXPECT_EQ(make_chord_ring(1).edge_count(), 0u);
}

TEST(Cfl, TokensStartAtHome) {
  CflProcess process(16, 0.1, util::Rng(1));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(process.token_position(i), i);
  for (const std::size_t length : process.link_lengths()) EXPECT_EQ(length, 0u);
}

TEST(Cfl, StepMovesEveryTokenByOne) {
  CflProcess process(16, 0.1, util::Rng(2));
  process.step();
  for (std::size_t i = 0; i < 16; ++i) {
    const std::size_t pos = process.token_position(i);
    const std::size_t d = std::min((pos + 16 - i) % 16, (i + 16 - pos) % 16);
    EXPECT_EQ(d, 1u) << "token " << i;
  }
  EXPECT_EQ(process.steps_taken(), 1u);
}

TEST(Cfl, AgesResetOnForget) {
  CflProcess process(8, 0.1, util::Rng(3));
  process.run(500);
  EXPECT_GT(process.total_forgets(), 0u);
  // Ages are bounded by steps and nonnegative by type; spot-check coherence:
  for (std::size_t i = 0; i < 8; ++i) EXPECT_LE(process.age(i), 500u);
}

TEST(Cfl, GraphContainsRingAndLinks) {
  CflProcess process(12, 0.1, util::Rng(4));
  process.run(50);
  const auto g = process.graph();
  for (graph::Vertex i = 0; i < 12; ++i) {
    EXPECT_TRUE(g.has_edge(i, (i + 1) % 12));
    EXPECT_TRUE(g.has_edge(i, (i + 11) % 12));
  }
  EXPECT_TRUE(graph::is_strongly_connected(g));
}

TEST(Cfl, DeterministicGivenSeed) {
  CflProcess a(32, 0.1, util::Rng(5));
  CflProcess b(32, 0.1, util::Rng(5));
  a.run(200);
  b.run(200);
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_EQ(a.token_position(i), b.token_position(i));
  EXPECT_EQ(a.total_forgets(), b.total_forgets());
}

TEST(Cfl, MeanLengthGrowsThenStabilizes) {
  CflProcess process(64, 0.1, util::Rng(6));
  process.run(5);
  const auto early = process.link_lengths();
  process.run(2000);
  const auto late = process.link_lengths();
  double early_mean = 0, late_mean = 0;
  for (const auto d : early) early_mean += static_cast<double>(d);
  for (const auto d : late) late_mean += static_cast<double>(d);
  EXPECT_GT(late_mean, early_mean);
}

}  // namespace
}  // namespace sssw::topology
