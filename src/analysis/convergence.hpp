// convergence.hpp — the run steps every experiment shares: the
// from-scratch network, the stabilized network and the round budget.
// convergence.cpp also holds the drivers of E1/A1 (stabilization) and
// E6/E7 (join/leave recovery, §IV.G), which the catalog binds.
#pragma once

#include <cstdint>

#include "core/config.hpp"
#include "core/network.hpp"
#include "topology/initial_states.hpp"

namespace sssw::analysis {

/// n random ids in the shape's initial state, registered with a fresh
/// network — the start of every "converge from scratch" run.  The ids and
/// then the shape are drawn from Rng(seed); `options.seed` is set to seed.
core::SmallWorldNetwork initial_network(topology::InitialShape shape,
                                        std::size_t n, std::uint64_t seed,
                                        core::NetworkOptions options = {});

/// A sorted ring of n random ids (drawn from `seed`, which also seeds the
/// network) after exactly `burn_in_rounds` rounds of move-and-forget, so
/// long-range links have spread.  0 rounds means none.
core::SmallWorldNetwork stabilized_network(std::size_t n, std::uint64_t seed,
                                           std::size_t burn_in_rounds,
                                           const core::Config& protocol = {});

/// The round budget of one run to the sorted ring: the 400n + 4000 rounds
/// the convergence property tests pin for every shape and scheduler,
/// stretched by the rounds a message may be held (1 + the fault plan's
/// extra delay + the oldest-last hold), plus the partition window, doubled
/// under message loss (loss only delays: pointers persist and SENDID
/// re-announces every round).
std::uint64_t round_budget(std::size_t n, const sim::EngineConfig& engine);

}  // namespace sssw::analysis
