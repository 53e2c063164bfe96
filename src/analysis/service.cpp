#include "analysis/service.hpp"

#include <span>

#include "analysis/convergence.hpp"
#include "core/network.hpp"
#include "core/node.hpp"
#include "routing/next_hop.hpp"
#include "util/rng.hpp"

namespace sssw::analysis {
namespace {

// One frozen-view greedy walk, taken with the *same* forwarding decision the
// live lookup service uses (routing::select_next_hop over the node's own
// SmallWorldNode::lookup_candidates) so this curve predicts
// what service::LookupManager would deliver on the snapshot: every node is
// treated as live (constant-false deadness — the snapshot has no channel
// state to suspect anyone over) and fallback is off (strict progress cannot
// loop, so no TTL is needed).
struct Walk {
  bool success = false;
  std::size_t hops = 0;
};

Walk walk_pair(const core::SmallWorldNetwork& network, sim::Id source,
               sim::Id target, std::size_t max_hops) {
  Walk walk;
  sim::Id current = source;
  const auto alive = [](sim::Id) { return false; };
  while (walk.hops <= max_hops) {
    const core::SmallWorldNode* node = network.node(current);
    if (node == nullptr) return walk;
    const routing::NextHop hop = routing::select_next_hop(
        current, target, node->lookup_candidates().view(), alive);
    if (hop.outcome == routing::HopOutcome::kArrived) {
      walk.success = true;
      return walk;
    }
    if (hop.outcome != routing::HopOutcome::kForward) return walk;
    current = hop.to;
    ++walk.hops;
  }
  return walk;
}

}  // namespace

std::vector<ServicePoint> measure_service_during_stabilization(
    topology::InitialShape shape, const ServiceOptions& options) {
  core::SmallWorldNetwork network = initial_network(shape, options.n, options.seed);

  util::Rng eval_rng(options.seed ^ 0x73657276ull);  // "serv"
  std::vector<ServicePoint> curve;
  std::size_t tail_left = options.tail_samples;

  const std::uint64_t budget = round_budget(options.n, {});
  for (std::uint64_t round = 0; round <= budget; round += options.sample_every) {
    ServicePoint point;
    point.round = network.engine().round();
    point.sorted_ring = network.sorted_ring();
    const std::span<const sim::Id> live = network.engine().id_span();
    std::size_t delivered = 0;
    std::size_t hop_sum = 0;
    for (std::size_t pair = 0; pair < options.routing_pairs; ++pair) {
      const sim::Id source = live[eval_rng.below(live.size())];
      const sim::Id target = live[eval_rng.below(live.size())];
      const Walk walk = walk_pair(network, source, target, options.n);
      if (walk.success) {
        ++delivered;
        hop_sum += walk.hops;
      }
    }
    point.success = options.routing_pairs > 0
                        ? static_cast<double>(delivered) /
                              static_cast<double>(options.routing_pairs)
                        : 0.0;
    point.mean_hops = delivered > 0 ? static_cast<double>(hop_sum) /
                                          static_cast<double>(delivered)
                                    : 0.0;
    curve.push_back(point);

    if (point.sorted_ring) {
      if (tail_left == 0) break;
      --tail_left;
    }
    network.run_rounds(options.sample_every);
  }
  return curve;
}

}  // namespace sssw::analysis
