// probe_path.hpp — the probing walk of Algorithms 5/6/10 over a frozen state.
//
// Lemma 4.23 bounds the number of hops a probing message takes to reach its
// destination in the stable state by O(ln^{2+ε} d).  Replaying the per-node
// forwarding decision deterministically over a network snapshot measures
// exactly that path, without message-scheduling noise.  The decision is the
// node's own (SmallWorldNode::first_probe_hop and probe_hop, which its
// handlers call), so the walk takes the hops the live protocol takes for
// any number of long-range links.
#pragma once

#include <cstddef>

#include "core/network.hpp"
#include "sim/id.hpp"

namespace sssw::routing {

struct ProbeResult {
  bool reached = false;   ///< probe arrived at the target node
  bool repaired = false;  ///< probe stopped early and would create a link
  std::size_t hops = 0;   ///< forwarding hops taken
  sim::Id stopped_at = sim::kNegInf;  ///< node where the walk ended
};

/// Walks a probing message from `origin` toward `target` over the current
/// node states, for at most `max_hops` hops.  In a stable network the
/// result is reached = true (Lemma 4.5).
ProbeResult probe_walk(const core::SmallWorldNetwork& network, sim::Id origin,
                       sim::Id target, std::size_t max_hops);

}  // namespace sssw::routing
