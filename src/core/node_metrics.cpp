#include "core/node_metrics.hpp"

namespace sssw::core {

NodeMetrics::NodeMetrics(obs::Registry& registry)
    : linearize_adoptions(registry.counter("node.linearize.adoptions")),
      linearize_forwards(registry.counter("node.linearize.forwards")),
      lrl_moves(registry.counter("node.lrl.moves")),
      lrl_forgets(registry.counter("node.lrl.forgets")),
      lrl_resets(registry.counter("node.lrl.resets")),
      ring_updates(registry.counter("node.ring.updates")),
      probe_repairs(registry.counter("node.probe.repairs")),
      detector_probes(registry.counter("node.detector.probes")),
      detector_acks(registry.counter("node.detector.acks")),
      detector_pongs(registry.counter("node.detector.pongs")),
      detector_suspects(registry.counter("node.detector.suspects")),
      detector_retries(registry.counter("node.detector.retries")),
      detector_evictions(registry.counter("node.detector.evictions")),
      detector_quarantine_hits(
          registry.counter("node.detector.quarantine.hits")),
      detector_rescues(registry.counter("node.detector.rescues")),
      service_forwards(registry.counter("node.service.forwards")),
      service_hits(registry.counter("node.service.hits")),
      service_misses(registry.counter("node.service.misses")),
      service_dead_skips(registry.counter("node.service.dead-skips")),
      service_ttl_drops(registry.counter("node.service.ttl-drops")),
      service_repairs(registry.counter("node.service.repairs")) {}

}  // namespace sssw::core
