// service.hpp — routing service quality *during* stabilization/recovery.
//
// The theorems describe the end state; an operator cares how usable the
// overlay is on the way there.  This driver runs a computation from a given
// initial shape and, every `sample_every` rounds, walks greedy lookups over
// the frozen node state for random pairs — the "service quality during
// recovery" curve.  Each walk takes the *same* forwarding decision the live
// in-band lookup service uses (routing::select_next_hop, see src/service/
// and doc/SERVICE.md): one routing decision function, two drivers, so the
// snapshot curve and the live SLO experiment (E15) cannot drift apart.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/initial_states.hpp"

namespace sssw::analysis {

struct ServicePoint {
  std::uint64_t round = 0;
  double success = 0.0;
  double mean_hops = 0.0;
  bool sorted_ring = false;
};

struct ServiceOptions {
  std::size_t n = 128;
  std::uint64_t seed = 1;
  std::size_t sample_every = 8;
  std::size_t routing_pairs = 100;
  /// Stop this many samples after the ring has formed.
  std::size_t tail_samples = 3;
};

/// Convergence-time service curve from the given initial shape, under the
/// default protocol config, for at most round_budget (convergence.hpp).
std::vector<ServicePoint> measure_service_during_stabilization(
    topology::InitialShape shape, const ServiceOptions& options);

}  // namespace sssw::analysis
