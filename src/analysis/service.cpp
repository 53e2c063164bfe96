// E1c: routing service quality *during* stabilization.
//
// The theorems describe the end state; an operator cares how usable the
// overlay is on the way there.  Each trial runs a computation from the
// cell's initial shape and, every 4 rounds, walks greedy lookups over the
// frozen node state for 100 random pairs, until the sorted ring has formed.
// Each walk takes the *same* forwarding decision the live in-band lookup
// service uses (routing::select_next_hop, see src/service/ and
// doc/SERVICE.md): one routing decision function, two drivers, so this
// curve and the live SLO experiment (E15) cannot drift apart.
#include <algorithm>
#include <span>
#include <vector>

#include "analysis/convergence.hpp"
#include "analysis/drivers.hpp"
#include "core/network.hpp"
#include "core/node.hpp"
#include "routing/next_hop.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace sssw::analysis {
namespace {

// One frozen-view greedy walk, taken with the *same* forwarding decision the
// live lookup service uses (routing::select_next_hop over the node's own
// SmallWorldNode::lookup_candidates) so this curve predicts
// what service::LookupManager would deliver on the snapshot: every node is
// treated as live (constant-false deadness — the snapshot has no channel
// state to suspect anyone over) and fallback is off (strict progress cannot
// loop, so no TTL is needed).
bool walk_arrives(const core::SmallWorldNetwork& network, sim::Id source,
                  sim::Id target, std::size_t max_hops) {
  sim::Id current = source;
  const auto alive = [](sim::Id) { return false; };
  for (std::size_t hops = 0; hops <= max_hops; ++hops) {
    const core::SmallWorldNode* node = network.node(current);
    if (node == nullptr) return false;
    const routing::NextHop hop = routing::select_next_hop(
        current, target, node->lookup_candidates().view(), alive);
    if (hop.outcome == routing::HopOutcome::kArrived) return true;
    if (hop.outcome != routing::HopOutcome::kForward) return false;
    current = hop.to;
  }
  return false;
}

}  // namespace

CellResult run_stabilizing_service(const SweepCell& cell, obs::Registry*) {
  constexpr std::size_t kSampleEvery = 4;
  constexpr std::size_t kPairs = 100;
  struct Sample {
    std::uint64_t round = 0;
    double success = 0.0;  ///< share of the pairs whose walk arrived
  };
  struct Trial {
    double t0 = 0, half = 0, ring = 0, ring_round = -1;
  };
  const std::uint64_t budget = round_budget(cell.n, {});
  const auto trials = util::run_trials<Trial>(
      cell.trials, cell.seed, [&](std::size_t, std::uint64_t seed) {
        core::SmallWorldNetwork network = initial_network(cell.shape, cell.n, seed);
        util::Rng eval_rng(seed ^ 0x73657276ull);  // "serv"
        std::vector<Sample> curve;
        Trial trial;
        for (std::uint64_t round = 0; round <= budget; round += kSampleEvery) {
          const std::span<const sim::Id> live = network.engine().id_span();
          std::size_t delivered = 0;
          for (std::size_t pair = 0; pair < kPairs; ++pair) {
            const sim::Id source = live[eval_rng.below(live.size())];
            const sim::Id target = live[eval_rng.below(live.size())];
            if (walk_arrives(network, source, target, cell.n)) ++delivered;
          }
          curve.push_back({network.engine().round(),
                           static_cast<double>(delivered) /
                               static_cast<double>(kPairs)});
          if (network.sorted_ring()) {
            // The first sample at least halfway to the ring.
            const Sample& ring = curve.back();
            const auto half = std::find_if(
                curve.begin(), curve.end(),
                [&](const Sample& s) { return 2 * s.round >= ring.round; });
            trial.t0 = curve.front().success;
            trial.half = half->success;
            trial.ring = ring.success;
            trial.ring_round = static_cast<double>(ring.round);
            return trial;
          }
          network.run_rounds(kSampleEvery);
        }
        return trial;
      });
  std::vector<double> t0, half, ring, rounds;
  for (const Trial& trial : trials) {
    if (trial.ring_round < 0) continue;
    t0.push_back(trial.t0);
    half.push_back(trial.half);
    ring.push_back(trial.ring);
    rounds.push_back(trial.ring_round);
  }
  CellResult out;
  out.add("success_t0", mean_or_none(t0));
  out.add("success_half", mean_or_none(half));
  out.add("success_ring", mean_or_none(ring));
  out.add("ring_round", mean_or_none(rounds));
  return out;
}

}  // namespace sssw::analysis
