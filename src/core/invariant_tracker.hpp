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
//                     iff sorted_pairs_ == n.  Each entry caches those
//                     expected neighbours (want_l, want_r), so an l/r write
//                     costs two compares.
//   ring closure      read lazily from the min and max nodes (two engine
//                     lookups), not counted — Definition 4.17.
//   forgot_nodes_     #nodes with forget_count() > 0 — the Phase-4 side
//                     condition of Thm 4.22.
//   unresolved_links_ #long-range links whose target is not a present node
//                     — `lrls_resolve`.  Any link write, join, leave or
//                     crash marks it stale, and the next query recounts all
//                     n·k links in one pass over the store's link column.
//                     Queries are rare (the fuzz oracle) or once per round
//                     (the metrics gauge), so that is cheaper than a
//                     liveness probe on every write.
//
// Hook contract (enforced by the property test and verify_against):
//   * every write to a node's l_/r_ calls notify_list()  → on_list_changed
//   * every write to a link target   calls notify_lrl()   → on_lrl_changed
//   * every advance of forgets_      calls notify_forget() → on_forget
//   * membership changes go through on_add (after the engine added the
//     node) and on_remove (before the engine drops it), which touch only
//     the node's own entry and its two rank neighbours' expectations.
// ring_ writes need no hook: only the current min and max nodes' ring()
// matter, and sorted_ring() reads them at query time.
//
// Entries live in one vector indexed by the node's NodeStore slot
// (SmallWorldNode::slot()); the store recycles slots, so the vector never
// outgrows the store.  Membership — which ids are present, in what order —
// is read from the engine (id_span, contains, find) through the reference
// given at construction; SmallWorldNetwork keeps its engine behind
// unique_ptr, so the reference survives network moves.  There is no reverse
// link index: who points at a node only matters when membership changes,
// and the recount answers that in O(n·k), the order of the leave scan that
// precedes it.  The link targets are read from the NodeStore directly, by
// slot, in the same order as the entries.
//
// The recompute path in invariants.hpp remains the *oracle*: the fuzzer's
// --paranoid mode, NetworkOptions.verify_tracker, and the property test
// cross-check every tracked answer against it, so the fast path is
// verified, not trusted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/engine.hpp"
#include "sim/id.hpp"

namespace sssw::core {

class NodeStore;
class SmallWorldNode;

class InvariantTracker {
 public:
  /// Tracks the SmallWorldNodes of `engine`, whose hot state lives in
  /// `store`; both must outlive the tracker.
  InvariantTracker(const sim::Engine& engine, const NodeStore& store) noexcept
      : engine_(engine), store_(store) {}

  // --- membership (O(log n) for the rank, O(1) entries touched) ---------
  /// Seeds the entry for a node the engine just added and points its two
  /// rank neighbours' expectations at it.  Marks unresolved counts stale.
  void on_add(const SmallWorldNode& node);
  /// Drops the entry for a node the engine is about to remove (its slot is
  /// released with it) and re-points its rank neighbours' expectations at
  /// each other.  Marks unresolved counts stale.
  void on_remove(const SmallWorldNode& node);
  /// Sizes the entry table (one entry per NodeStore slot) for `nodes`
  /// nodes.
  void reserve(std::size_t nodes) { entries_.reserve(nodes); }

  // --- mutation hooks (O(1), called from SmallWorldNode) ----------------
  // on_list_changed and on_forget recompute only the acting node's entry
  // from that node's current state; on_lrl_changed marks the unresolved
  // count stale.
  void on_list_changed(const SmallWorldNode& node);
  void on_lrl_changed(const SmallWorldNode& node);
  void on_forget(const SmallWorldNode& node);

  // --- tracked predicates (O(1)) ----------------------------------------
  /// Definition 4.8 — mirrors invariants.hpp is_sorted_list().
  bool sorted_list() const noexcept { return sorted_pairs_ == size(); }
  /// Definition 4.17 — mirrors is_sorted_ring().
  bool sorted_ring() const noexcept;
  /// Mirrors lrls_resolve().  O(1), except the first query after a link
  /// write or a membership change, which recounts every link.
  bool lrls_resolve() const { return unresolved_links() == 0; }
  /// Phase-4 side condition: every node has forgotten at least once ever.
  bool all_forgot() const noexcept { return forgot_nodes_ == size(); }

  // --- forget epoch (run_until_small_world's per-run condition) ---------
  /// Snapshots every node's forget_count as the epoch baseline (O(n), once
  /// per run).  Nodes joining later start from baseline 0.
  void arm_forget_epoch();
  /// True when every present node forgot at least once since the baseline
  /// (joiners since their join).  Trivially true for an empty network.
  bool epoch_all_forgot() const noexcept { return epoch_fresh_ == size(); }

  // --- gauges (src/obs wiring) ------------------------------------------
  std::size_t size() const noexcept { return engine_.process_count(); }
  std::size_t sorted_pairs() const noexcept { return sorted_pairs_; }
  std::size_t forgot_nodes() const noexcept { return forgot_nodes_; }
  /// Recounts first if a link or the membership changed since the last
  /// count.
  std::size_t unresolved_links() const;

  /// Oracle cross-check: recomputes every tracked quantity from `engine`
  /// (which must be the tracked engine) and SSSW_CHECKs it against the
  /// incremental state.  Brings stale unresolved counts up to date first.
  /// O(n + m); used by tests, the fuzzer's --paranoid mode, and
  /// NetworkOptions.verify_tracker.
  void verify_against(const sim::Engine& engine) const;

 private:
  struct Entry {
    const SmallWorldNode* node = nullptr;  ///< null: slot not tracked
    sim::Id want_l = sim::kNegInf;  ///< sorted-order left neighbour, or −∞
    sim::Id want_r = sim::kPosInf;  ///< sorted-order right neighbour, or +∞
    bool pair_ok = false;           ///< (l, r) == (want_l, want_r)
    bool forgot = false;            ///< forget_count() > 0
    bool epoch_counted = false;     ///< counted toward epoch_fresh_
    std::uint64_t forget_baseline = 0;
  };

  /// The entry of a present node, found through the engine.
  Entry& entry_of(sim::Id id) noexcept;
  /// Re-evaluates pair_ok against the cached expectations and folds the
  /// delta into sorted_pairs_.
  void refresh_pair(Entry& e) noexcept;
  void recount_unresolved() const;

  const sim::Engine& engine_;
  const NodeStore& store_;
  std::vector<Entry> entries_;  ///< by NodeStore slot
  std::size_t sorted_pairs_ = 0;
  std::size_t forgot_nodes_ = 0;
  std::size_t epoch_fresh_ = 0;
  mutable std::size_t unresolved_links_ = 0;
  mutable bool unresolved_stale_ = false;
};

}  // namespace sssw::core
