// network.hpp — high-level facade over (engine + protocol nodes).
//
// This is the public API a downstream user programs against: build a network
// from an initial state, run it to stabilization, join/leave nodes, and
// inspect the resulting topology.  Examples and benches all go through it.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/invariant_tracker.hpp"
#include "core/invariants.hpp"
#include "core/node.hpp"
#include "core/node_store.hpp"
#include "core/views.hpp"
#include "sim/engine.hpp"

namespace sssw::core {

/// The engine's settings (scheduler, seed, loss, faults; see
/// sim::EngineConfig) plus the protocol's.
struct NetworkOptions : sim::EngineConfig {
  Config protocol{};
  /// Debug mode: cross-check the incremental invariant tracker against the
  /// recompute oracle on every sorted_list/sorted_ring/phase query.  O(n+m)
  /// per query — for tests and the fuzzer's --paranoid mode, not production.
  bool verify_tracker = false;
};

class SmallWorldNetwork {
 public:
  explicit SmallWorldNetwork(NetworkOptions options = {});
  SmallWorldNetwork(SmallWorldNetwork&&) noexcept = default;
  /// Tears this network down before taking `other`'s parts (member-wise
  /// assignment would free the old store while the old engine's nodes
  /// still release their slots into it).
  SmallWorldNetwork& operator=(SmallWorldNetwork&& other) noexcept;

  /// Adds a node with the given initial internal variables (any weakly
  /// connected assignment is a legal starting state).
  void add_node(const NodeInit& init);

  /// Bulk construction from a list of initial states.
  void add_nodes(const std::vector<NodeInit>& inits);

  std::size_t size() const noexcept { return engine_->process_count(); }

  // --- running ----------------------------------------------------------
  void run_rounds(std::size_t rounds) { engine_->run_rounds(rounds); }

  /// Runs until Definition 4.8 / 4.17 holds; returns the number of rounds
  /// taken, or nullopt if `max_rounds` elapsed first.
  std::optional<std::uint64_t> run_until_sorted_list(std::size_t max_rounds);
  std::optional<std::uint64_t> run_until_sorted_ring(std::size_t max_rounds);

  /// Runs until the ring holds AND every node has forgotten its long-range
  /// link at least once after ring formation (Phase 4's entry condition).
  std::optional<std::uint64_t> run_until_small_world(std::size_t max_rounds);

  // --- churn (§IV.G) ------------------------------------------------------
  /// Joins a new node that initially knows exactly one contact.  Returns
  /// false if the id already exists or the contact does not.
  bool join(sim::Id new_id, sim::Id contact);

  /// Fail-stop leave with neighbour detection: the node vanishes and every
  /// variable that pointed at it is reset (l→−∞, r→∞, ring/lrl→self), which
  /// is exactly the "gap" state §IV.G analyses.
  bool leave(sim::Id id);

  /// Crash-stop: the node vanishes but survivors keep their stale pointers
  /// and stale in-flight messages survive.  Recovery requires the failure
  /// detector (Config::detector.enabled), which evicts the dead id,
  /// quarantines it and re-links the gap.  Without it the gap can wedge
  /// forever, which is why the paper assumes detected leaves
  /// (tests/test_crash_recovery.cpp pins that wedge).
  bool crash(sim::Id id);

  // --- observability ------------------------------------------------------
  /// Attaches `registry` to the whole network: the engine's engine.* and
  /// faults.* metrics, the node.* counters of current AND future nodes, and
  /// the invariants.* gauges.  Counters are views of counts the engine and
  /// the store keep anyway (not retroactive; see obs::Counter::view), so
  /// they cost nothing per event.  The gauges are set after every round, so
  /// the registry must be alive whenever the network runs; the registry and
  /// the network may be destroyed in either order.  Attaching a registry
  /// that viewed another network's counts carries its values over.  See
  /// doc/OBSERVABILITY.md.
  void attach_metrics(obs::Registry& registry);

  // --- inspection ---------------------------------------------------------
  sim::Engine& engine() noexcept { return *engine_; }
  const sim::Engine& engine() const noexcept { return *engine_; }

  // O(1) per query via the incremental tracker (BFS connectivity only below
  // the sorted-list phase); answers are bit-identical to the invariants.hpp
  // recompute oracle, and verify_tracker cross-checks that on every call.
  bool sorted_list() const;
  bool sorted_ring() const;
  bool lrls_resolve() const;
  Phase phase() const;

  /// Read-only access to the tracker (gauges, tests).
  const InvariantTracker& tracker() const noexcept { return *tracker_; }

  const SmallWorldNode* node(sim::Id id) const;
  SmallWorldNode* node(sim::Id id);

  /// Ring-rank lengths of all long-range links that point away from their
  /// origin (the E3 observable).
  std::vector<std::size_t> lrl_lengths() const;

  /// Snapshot of Definition 4.2 views.
  IdIndex make_index() const { return IdIndex(*engine_); }

 private:
  NetworkOptions options_;
  // store_, engine_ and tracker_ sit behind unique_ptr so the pointers
  // between them (nodes → store and tracker, tracker → engine, the metrics
  // round hook → engine and tracker) survive network moves:
  // make_stable_ring and snapshot restore return networks by value.
  /// Shared struct-of-arrays backing store for every node's hot state;
  /// declared before engine_ so it outlives the nodes (which release their
  /// slots on destruction).
  std::unique_ptr<NodeStore> store_;
  std::unique_ptr<sim::Engine> engine_;
  /// Always on; reads membership from *engine_.
  std::unique_ptr<InvariantTracker> tracker_;
};

/// Builds a network whose nodes carry the given ids and whose initial state
/// is already the perfect sorted ring with lrl = self — the "stable modulo
/// move-and-forget" state used by routing/probing experiments.
SmallWorldNetwork make_stable_ring(std::vector<sim::Id> ids, NetworkOptions options = {});

/// The same ring over n random ids drawn from Rng(options.seed): the start
/// of every experiment that begins in the legal state.
SmallWorldNetwork make_stable_ring(std::size_t n, const NetworkOptions& options);

/// Generates n distinct uniform ids in (0,1).
std::vector<sim::Id> random_ids(std::size_t n, util::Rng& rng);

/// The nodes a simultaneous crash of a `frac` share of `live` takes out, in
/// pick order: ⌊frac · |live|⌋ ids, at least 1 and at most |live| − 2 when
/// frac > 0, drawn by a partial Fisher–Yates shuffle from a stream of its
/// own derived from `seed`, so the pick leaves the engine's streams
/// untouched.  None when frac is 0 or fewer than three nodes are live.
std::vector<sim::Id> crash_victims(std::span<const sim::Id> live, double frac,
                                   std::uint64_t seed);

}  // namespace sssw::core
