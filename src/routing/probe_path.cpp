#include "routing/probe_path.hpp"

#include "core/node.hpp"
#include "util/check.hpp"

namespace sssw::routing {

using core::SmallWorldNode;
using sim::Id;

ProbeResult probe_walk(const core::SmallWorldNetwork& network, Id origin, Id target,
                       std::size_t max_hops) {
  using Kind = SmallWorldNode::ProbeHop::Kind;
  ProbeResult result;
  const SmallWorldNode* node = network.node(origin);
  SSSW_CHECK_MSG(node != nullptr, "probe origin must exist");
  // Algorithm 10 hands the probe to l or r, or repairs on the spot; every
  // later hop is the receiving node's own Algorithm 5/6 decision.
  SmallWorldNode::ProbeHop hop = node->first_probe_hop(target);
  Id current = origin;
  while (hop.kind == Kind::kForward && result.hops < max_hops) {
    current = hop.to;
    ++result.hops;
    if (current == target) {
      result.reached = true;
      break;
    }
    node = network.node(current);
    if (node == nullptr) break;  // a departed node: the message is dropped
    hop = node->probe_hop(hop.type, target);
  }
  result.repaired = hop.kind == Kind::kRepair;
  result.stopped_at = current;
  return result;
}

}  // namespace sssw::routing
