// invariant_tracker.hpp — incremental convergence oracle (O(1) per round).
//
// The legal-state predicates in invariants.hpp recompute a global property
// from scratch: `is_sorted_list` walks every node, `detect_phase` adds full
// BFS passes.  Polled once per round inside `engine.run_until`, that makes
// convergence experiments pay Θ(n) (or Θ(n+m)) per round on top of the
// protocol itself.  The tracker maintains the same predicates as running
// counters so each poll is O(1):
//
//   sorted_pairs_     #nodes whose (l, r) equal their sorted-order
//                     neighbours (±∞ at the ends) — Definition 4.8 holds
//                     iff sorted_pairs_ == n.
//   ring closure      read lazily from the cached min/max node pointers
//                     (two hash lookups), not counted — Definition 4.17.
//   forgot_nodes_     #nodes with forget_count() > 0 — the Phase-4 side
//                     condition of Thm 4.22.
//   unresolved_links_ #long-range links whose target is not a present node
//                     — `lrls_resolve`.
//
// Hook contract (enforced by the property test and verify_against):
//   * every write to a node's l_/r_ calls notify_list()  → on_list_changed
//   * every write to a link target   calls notify_lrl()   → on_lrl_changed
//   * every advance of forgets_      calls notify_forget() → on_forget
//   * membership changes go through on_add / on_remove, which re-seed only
//     the O(1) affected entries (the joiner/leaver, its two rank
//     neighbours, and the holders of links referencing the id).
// ring_ writes need no hook: only the current min and max nodes' ring()
// matter, and sorted_ring() reads them at query time.
//
// The tracker deliberately holds no engine reference.  It mirrors the
// membership (sorted_ids_) and caches node pointers, which are heap-stable
// (the engine stores processes behind unique_ptr), so a SmallWorldNetwork
// that owns a tracker stays cheaply movable.
//
// The recompute path in invariants.hpp remains the *oracle*: the fuzzer's
// --paranoid mode, NetworkOptions.verify_tracker, and the property test
// cross-check every tracked answer against it, so the fast path is
// verified, not trusted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/id.hpp"

namespace sssw::sim {
class Engine;
}  // namespace sssw::sim

namespace sssw::core {

class SmallWorldNode;

class InvariantTracker {
 public:
  // --- membership (O(log n) for the rank, O(1) entries touched) ---------
  /// Seeds the entry for a node that was just added to the engine, and
  /// re-seeds its two rank neighbours plus any stranded links that now
  /// resolve to it.
  void on_add(const SmallWorldNode& node);
  /// Drops the entry for a node that just left the engine, re-seeds its
  /// former rank neighbours, and marks links referencing it unresolved.
  void on_remove(sim::Id id);

  // --- mutation hooks (O(1), called from SmallWorldNode) ----------------
  // Each hook recomputes only the acting node's entry from that node's
  // current state.
  void on_list_changed(const SmallWorldNode& node);
  void on_lrl_changed(const SmallWorldNode& node);
  void on_forget(const SmallWorldNode& node);

  // --- tracked predicates (O(1)) ----------------------------------------
  /// Definition 4.8 — mirrors invariants.hpp is_sorted_list().
  bool sorted_list() const noexcept {
    return sorted_pairs_ == sorted_ids_.size();
  }
  /// Definition 4.17 — mirrors is_sorted_ring().
  bool sorted_ring() const noexcept;
  /// Mirrors lrls_resolve().
  bool lrls_resolve() const noexcept { return unresolved_links_ == 0; }
  /// Phase-4 side condition: every node has forgotten at least once ever.
  bool all_forgot() const noexcept {
    return forgot_nodes_ == sorted_ids_.size();
  }

  // --- forget epoch (run_until_small_world's per-run condition) ---------
  /// Snapshots every node's forget_count as the epoch baseline (O(n), once
  /// per run).  Nodes joining later start from baseline 0.
  void arm_forget_epoch();
  /// True when every present node forgot at least once since the baseline
  /// (joiners since their join).  Trivially true for an empty network.
  bool epoch_all_forgot() const noexcept {
    return epoch_fresh_ == sorted_ids_.size();
  }

  // --- gauges (src/obs wiring) ------------------------------------------
  std::size_t size() const noexcept { return sorted_ids_.size(); }
  std::size_t sorted_pairs() const noexcept { return sorted_pairs_; }
  std::size_t forgot_nodes() const noexcept { return forgot_nodes_; }
  std::size_t unresolved_links() const noexcept { return unresolved_links_; }

  /// Oracle cross-check: recomputes every tracked quantity from the engine
  /// and SSSW_CHECKs it against the incremental state.  O(n + m); used by
  /// tests, the fuzzer's --paranoid mode, and NetworkOptions.verify_tracker.
  void verify_against(const sim::Engine& engine) const;

 private:
  struct Entry {
    const SmallWorldNode* node = nullptr;
    bool pair_ok = false;   ///< (l, r) match the sorted-order neighbours
    bool forgot = false;    ///< forget_count() > 0
    bool epoch_counted = false;  ///< counted toward epoch_fresh_
    std::uint64_t forget_baseline = 0;
    std::uint32_t unresolved = 0;  ///< #links whose target is absent
    std::vector<sim::Id> targets;  ///< link targets mirrored into refs_
  };

  std::size_t rank_of(sim::Id id) const noexcept;
  bool contains(sim::Id id) const noexcept;
  bool pair_ok_for(const SmallWorldNode& node, std::size_t rank) const noexcept;
  /// Recomputes pair_ok for `id` (present at a known rank) and folds the
  /// delta into sorted_pairs_.
  void reseed_pair(sim::Id id);
  /// Removes one occurrence of `holder` from refs_[target].
  void unref(sim::Id target, sim::Id holder);

  std::vector<sim::Id> sorted_ids_;  ///< mirror of the engine's sorted order
  std::unordered_map<sim::Id, Entry> entries_;
  /// Reverse link index: target id → holder ids (one per link occurrence),
  /// so membership changes fix up resolved-status in O(#holders).
  std::unordered_map<sim::Id, std::vector<sim::Id>> refs_;
  std::size_t sorted_pairs_ = 0;
  std::size_t forgot_nodes_ = 0;
  std::size_t epoch_fresh_ = 0;
  std::size_t unresolved_links_ = 0;
};

}  // namespace sssw::core
