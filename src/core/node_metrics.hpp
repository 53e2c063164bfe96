// node_metrics.hpp — shared protocol-event counters for SmallWorldNode.
//
// One NodeMetrics instance is shared by every node of a network (the
// registry aggregates over nodes; per-node numbers stay on the node itself,
// e.g. SmallWorldNode::forget_count()).  A node without a metrics sink pays
// one null check per event.  See doc/OBSERVABILITY.md for the catalog.
#pragma once

#include "obs/registry.hpp"

namespace sssw::core {

struct NodeMetrics {
  /// Binds the node.* counters in `registry`; the registry must outlive
  /// this object (references stay valid — Registry storage is stable).
  explicit NodeMetrics(obs::Registry& registry);

  obs::Counter& linearize_adoptions;  ///< lin payload adopted as closer l/r
  obs::Counter& linearize_forwards;   ///< lin payload delegated onward
  obs::Counter& lrl_moves;            ///< MOVE-FORGET advanced a token
  obs::Counter& lrl_forgets;          ///< φ(α) fired: token sent home
  obs::Counter& lrl_resets;           ///< link reset to home, any cause
  obs::Counter& ring_updates;         ///< UPDATERING improved a ring edge
  obs::Counter& probe_repairs;        ///< probe dead-end repaired via linearize
  // Active probe/ack detector (config.detector; all zero while disabled).
  obs::Counter& detector_probes;      ///< pings sent (one per watched pointer per tick)
  obs::Counter& detector_acks;        ///< pings answered with a pong
  obs::Counter& detector_pongs;       ///< pongs received (acks that survived the channel)
  obs::Counter& detector_suspects;    ///< pointers that crossed suspect_threshold
  obs::Counter& detector_retries;     ///< backoff retry pings after suspicion
  obs::Counter& detector_evictions;   ///< pointers evicted (dead id quarantined)
  obs::Counter& detector_quarantine_hits;  ///< adoptions/spreads blocked by the detector
  obs::Counter& detector_rescues;     ///< isolation rescue announcements sent
  // In-band lookup service (src/service/, doc/SERVICE.md); all zero unless a
  // LookupManager injects load.
  obs::Counter& service_forwards;     ///< lookups forwarded one hop
  obs::Counter& service_hits;         ///< lookups answered at their target
  obs::Counter& service_misses;       ///< lookups dead-lettered at a hop
  obs::Counter& service_dead_skips;   ///< next-hop candidates skipped as dead
  obs::Counter& service_ttl_drops;    ///< misses caused by ttl exhaustion
  obs::Counter& service_repairs;      ///< dead-end targets fed to linearization
};

}  // namespace sssw::core
