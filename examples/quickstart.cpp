// quickstart — build a scrambled network, watch it self-stabilize into a
// small world, then greedily route through it.
//
//   ./quickstart [--n 128] [--shape random-chain] [--seed 7]
//
// This is the 60-second tour of the library: initial state → phases →
// sorted ring → harmonic long-range links → polylog greedy routing.
#include <cstdio>
#include <string>

#include "analysis/linklen.hpp"
#include "core/invariants.hpp"
#include "core/network.hpp"
#include "core/views.hpp"
#include "routing/greedy.hpp"
#include "topology/initial_states.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace sssw;

int main(int argc, char** argv) {
  std::int64_t n = 128;
  std::int64_t seed = 7;
  std::string shape_name = "random-chain";
  util::Cli cli("sssw quickstart: self-stabilize a small-world network");
  cli.flag("n", "number of nodes", &n);
  cli.flag("seed", "random seed", &seed);
  cli.flag("shape", "initial topology shape", &shape_name);
  if (!cli.parse(argc, argv)) return cli.help_requested() ? 0 : 1;

  const auto shape = topology::shape_from_string(shape_name);
  if (!shape) {
    std::fprintf(stderr, "unknown shape '%s'\n", shape_name.c_str());
    return 1;
  }
  util::Rng rng(static_cast<std::uint64_t>(seed));
  auto ids = core::random_ids(static_cast<std::size_t>(n), rng);
  auto inits = topology::make_initial_state(*shape, ids, rng);

  core::NetworkOptions options;
  options.seed = static_cast<std::uint64_t>(seed);
  core::SmallWorldNetwork network(options);
  network.add_nodes(inits);

  std::printf("initial state : %zu nodes, shape=%s, phase=%s\n", network.size(),
              topology::to_string(*shape), core::to_string(network.phase()));

  const auto list_rounds = network.run_until_sorted_list(100000);
  if (!list_rounds.has_value()) {
    std::fprintf(stderr, "did not linearize within the round budget\n");
    return 1;
  }
  std::printf("sorted list   : after %llu rounds\n",
              static_cast<unsigned long long>(*list_rounds));

  const auto ring_rounds = network.run_until_sorted_ring(100000);
  if (!ring_rounds.has_value()) {
    std::fprintf(stderr, "ring did not close within the round budget\n");
    return 1;
  }
  std::printf("sorted ring   : after %llu more rounds (phase=%s)\n",
              static_cast<unsigned long long>(*ring_rounds),
              core::to_string(network.phase()));

  // Burn in move-and-forget so the long-range links mix toward harmonic.
  network.run_rounds(8 * static_cast<std::size_t>(n));
  const auto lengths = network.lrl_lengths();
  const auto fit = analysis::fit_lengths(lengths, static_cast<std::size_t>(n) / 2, 16);
  std::printf("lrl lengths   : %zu links, mean %.1f, P(d) ~ d^%.2f (r2=%.2f)\n",
              lengths.size(), fit.mean_length, fit.fit.exponent, fit.fit.r2);

  // Route a few greedy queries over the stored links (CP view).
  const core::IdIndex index = network.make_index();
  const auto cp = core::view_cp(network.engine(), index);
  const auto routing = routing::evaluate_routing(cp, rng, 200, static_cast<std::size_t>(n));
  std::printf("greedy routing: success %.0f%%, mean %.1f hops, p90 %.1f hops\n",
              100.0 * routing.success_rate, routing.hops.mean, routing.hops.p90);
  std::printf("messages sent : %.1f per node per round\n",
              static_cast<double>(network.engine().counters().total_sent()) /
                  static_cast<double>(network.size()) /
                  static_cast<double>(network.engine().round()));
  return 0;
}
