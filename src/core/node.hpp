// node.hpp — the self-stabilizing small-world node (Algorithms 1–10, §III).
//
// One SmallWorldNode is one process p with internal variables
//   p.id, p.l, p.r, p.lrl, p.ring, p.age
// exactly as in the paper.  Its receive action dispatches on the message
// type (Algorithm 1); its regular action runs SENDID and PROBING.
//
// Two deviations from the literal pseudocode, both documented in DESIGN.md:
//  * RESPONDLRL's third branch sends (p.ring, p.r) — the paper's (p.ring,
//    p.l) has p.l = −∞ and would coin-flip the long-range link onto −∞.
//  * RESPONDRING's `id > p`, `p.r > id` branch sends (p.r, lin) — the paper
//    sends (p.l, lin), which announces a *smaller* node where a larger one
//    is required (mirror of the `id < p` branch).
// Additionally, sends whose payload or target is a ±∞ sentinel are
// suppressed: such messages are no-ops at any receiver, and suppressing them
// preserves the Nor-et-al. invariant that channels only carry existing
// identifiers.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "core/detector.hpp"
#include "core/forget.hpp"
#include "core/messages.hpp"
#include "core/node_store.hpp"
#include "routing/next_hop.hpp"
#include "sim/engine.hpp"

namespace sssw::core {

class InvariantTracker;  // invariant_tracker.hpp

/// Initial internal-variable assignment for one node; the self-stabilization
/// claim is that *any* weakly connected assignment converges.
struct NodeInit {
  sim::Id id;
  sim::Id l = sim::kNegInf;
  sim::Id r = sim::kPosInf;
  sim::Id lrl;   ///< defaults to id (token at home) if NaN-unset; see ctor
  sim::Id ring;  ///< defaults to id (inert) if NaN-unset; see ctor

  explicit NodeInit(sim::Id node_id)
      : id(node_id), lrl(node_id), ring(node_id) {}
  NodeInit(sim::Id node_id, sim::Id left, sim::Id right)
      : id(node_id), l(left), r(right), lrl(node_id), ring(node_id) {}
};

class SmallWorldNode final : public sim::Process {
 public:
  /// Hot state lives in the shared struct-of-arrays `store` (which must
  /// outlive the node); the node is a thin view over its dense slot.  See
  /// core/node_store.hpp.
  SmallWorldNode(const NodeInit& init, NodeStore& store);
  ~SmallWorldNode() override;

  SmallWorldNode(const SmallWorldNode&) = delete;
  SmallWorldNode& operator=(const SmallWorldNode&) = delete;

  // --- sim::Process ---------------------------------------------------
  sim::Id id() const noexcept override { return id_; }
  void on_message(sim::Context& ctx, const sim::Message& message) override;
  void on_regular(sim::Context& ctx) override;
  /// Probe tick of the active failure detector (config.detector.enabled);
  /// never fires otherwise — the timer is only armed when a detector exists.
  void on_timer(sim::Context& ctx, std::uint64_t tag) override;

  /// One long-range link — see core/node_store.hpp (kept as a nested alias
  /// for the pre-SoA call sites).
  using LongRangeLink = core::LongRangeLink;

  // --- state inspection (views, invariants, tests) ---------------------
  sim::Id l() const noexcept { return store_->l(slot_); }
  sim::Id r() const noexcept { return store_->r(slot_); }
  /// The (first) long-range link — the paper's p.lrl.
  sim::Id lrl() const noexcept { return links().front().target; }
  sim::Id ring() const noexcept { return store_->ring(slot_); }
  Age age() const noexcept { return links().front().age; }
  /// All long-range links (size = config.lrl_count), a view into the store.
  std::span<const LongRangeLink> lrls() const noexcept { return links(); }
  const Config& config() const noexcept { return store_->config(); }
  /// This node's dense index into its NodeStore.  The store recycles slots,
  /// so a slot names this node only while it is alive (the invariant
  /// tracker keys its entries by it).
  std::size_t slot() const noexcept { return slot_; }

  /// True when this node stores a ring edge per the paper's rule
  /// ("only set if p.l = −∞ or p.r = ∞") and it is not the inert self-link.
  bool has_ring_edge() const noexcept;

  // --- forwarding rules ------------------------------------------------
  // The decisions this node's own handlers take, exposed so frozen-state
  // walks (routing::probe_walk, the lookup walk of analysis/service.cpp)
  // replay exactly the protocol's hops.

  /// One probe forwarding decision.
  struct ProbeHop {
    enum class Kind : std::uint8_t {
      kForward,  ///< send a `type` probe to `to`
      kRepair,   ///< target lies in this node's gap: linearize(target)
      kDrop,     ///< nothing to do (no target, or the probe overshot)
    };
    Kind kind = Kind::kDrop;
    sim::Id to = sim::kNegInf;
    sim::MessageType type = kProbr;  ///< kProbr or kProbl
  };

  /// Algorithm 10's first hop of this node's own probe toward `target` (its
  /// ring edge or a link target): a kProbl to l or a kProbr to r.
  ProbeHop first_probe_hop(sim::Id target) const noexcept;

  /// Algorithms 5/6: where a received probe of `type` (kProbr or kProbl)
  /// toward `target` goes next — the farthest long-range link that does not
  /// pass the target, else the list neighbour.
  ProbeHop probe_hop(sim::MessageType type, sim::Id target) const noexcept;

  /// The pointers one lookup hop chooses among, in the canonical order l,
  /// r, ring, lrl[0..k) that routing::select_next_hop breaks ties by.
  struct LookupCandidates {
    std::array<sim::Id, routing::kMaxNextHopCandidates> ids;
    std::size_t count = 0;
    std::span<const sim::Id> view() const noexcept { return {ids.data(), count}; }
  };
  LookupCandidates lookup_candidates() const noexcept;

  /// Ids currently on the active detector's dead-id quarantine list (0
  /// when the detector is disabled); feeds the node.detector.quarantined
  /// gauge.
  std::size_t quarantined_count() const noexcept;

  /// Most-recent-first cache of ids that provably messaged this node (the
  /// isolation-rescue contact list; kPosInf = empty slot).  Exposed for
  /// tests — see attempt_rescue() for the protocol role.
  std::span<const sim::Id> rescue_contacts() const noexcept {
    return {rescue_.data(), rescue_.size()};
  }

  /// Number of times this node's long-range link was forgotten (reset).
  std::uint64_t forget_count() const noexcept { return store_->forgets(slot_); }
  /// Largest age the long-range link ever reached (for E10).
  Age max_age_seen() const noexcept { return store_->max_age(slot_); }

  // --- state mutation for tests/fault injection/snapshot restore -------
  // Mutators notify the invariant tracker like the protocol actions do, so
  // fault-injection tests can scramble state and the tracked predicates
  // stay exact (the hook contract of invariant_tracker.hpp).
  void set_l(sim::Id v) noexcept {
    store_->l(slot_) = v;
    notify_list();
  }
  void set_r(sim::Id v) noexcept {
    store_->r(slot_) = v;
    notify_list();
  }
  void set_lrl(sim::Id v) noexcept {
    links().front().target = v;
    notify_lrl();
  }
  void set_ring(sim::Id v) noexcept { store_->ring(slot_) = v; }
  void set_age(Age v) noexcept {
    links().front().age = v;
    Age& seen = store_->max_age(slot_);
    seen = v > seen ? v : seen;
  }
  /// Resets every long-range link whose target is `id` to home (used by the
  /// fail-stop leave cleanup).
  void reset_lrls_matching(sim::Id id) noexcept;

  // --- in-band lookup service (src/service/, doc/SERVICE.md) -----------
  /// Opts this node into the completion inbox: kLookupHit/kLookupMiss
  /// messages addressed here are buffered for the LookupManager's
  /// sequential round-hook drain instead of being ignored as channel
  /// garbage.  Only the manager sets it (on lookup origins), so runs
  /// without a manager stay byte-identical to pre-service builds.
  void enable_service() noexcept { service_enabled_ = true; }
  bool service_enabled() const noexcept { return service_enabled_; }
  /// Moves the buffered completions out (call from sequential sections
  /// only — the round hook, between rounds, or tests).
  std::vector<sim::Message> drain_service_inbox() {
    return std::exchange(service_inbox_, {});
  }

  /// Points this node at the network's incremental invariant tracker (not
  /// owned; may be null to detach).  The node reports l/r writes, link-
  /// target writes, and forget_count advances — see invariant_tracker.hpp
  /// for the full hook contract.
  void set_invariant_tracker(InvariantTracker* tracker) noexcept {
    tracker_ = tracker;
  }

 private:
  // Algorithms 2–10.  Each method is a direct transcription; `ctx` carries
  // the engine's send primitive and random stream.
  void linearize(sim::Context& ctx, sim::Id id);                 // Alg. 2
  void respond_lrl(sim::Context& ctx, sim::Id origin);           // Alg. 3
  void move_forget(sim::Context& ctx, sim::Id id1, sim::Id id2,
                   sim::Id responder);                           // Alg. 4
  void forward_probe(sim::Context& ctx, sim::MessageType type,
                     sim::Id target);                            // Algs. 5/6
  void respond_ring(sim::Context& ctx, sim::Id origin);          // Alg. 7
  void update_ring(sim::Id candidate);                           // Alg. 8
  void send_id(sim::Context& ctx);                               // Alg. 9
  void probing(sim::Context& ctx);                               // Alg. 10

  /// Carries out one probe decision for `target` (send, or repair).
  void apply_probe_hop(sim::Context& ctx, const ProbeHop& hop, sim::Id target);

  /// send with sentinel suppression: no-op if target or any payload id is
  /// non-finite.
  void send(sim::Context& ctx, sim::Id to, sim::MessageType type, sim::Id id1,
            sim::Id id2 = sim::kPosInf);

  /// One forwarding step of an in-band lookup (doc/SERVICE.md): answer if
  /// this node is the target, otherwise pick the live pointer strictly
  /// closest to it (routing::select_next_hop with is_dead as the deadness
  /// predicate) or dead-letter with a typed reason.
  void handle_lookup(sim::Context& ctx, const sim::Message& m);

  /// Drops the inert ring self-link once both list neighbours exist
  /// ("resetting them over time", §III).
  void tidy_ring() noexcept;

  /// Dead-id filter for the adoption/spread sites: true if the failure
  /// detector has `id` quarantined or suspected from missed acks.  A
  /// crashed node's id spreads epidemically (it is served in reslrl
  /// responses, adopted as lrl targets, probed toward, and stalled probes
  /// linearize it back into l/r), so every such site refuses a dead id.
  /// Counts node.detector.quarantine.hits on each refusal.
  bool is_dead(sim::Id id) const noexcept;

  /// Applies one detector eviction: purges `target` from every pointer slot
  /// it still occupies, then re-links toward the dead node's last reported
  /// (l, r) view so the survivors' line re-closes around the gap.
  void apply_eviction(sim::Context& ctx, const FailureDetector::Eviction& ev);

  /// Records `id` as a live contact (MRU, deduplicated): callers pass only
  /// message fields naming a node that was live when the message entered
  /// the network (the prober/responder/requester itself, or a lookup's
  /// origin) — never forwarded third-party ids, which may be long dead.
  void remember_contact(sim::Id id) noexcept;

  /// Isolation rescue: while this node holds *no* line pointer at all
  /// (l = −∞ and r = ∞ simultaneously), re-announce its id to the cached
  /// contacts.  A mass crash can take out a node's entire (clustered)
  /// pointer neighbourhood; the node then evicts every slot, the survivors'
  /// line re-closes around it, and — silent and unreferenced — it is
  /// partitioned out of the overlay forever even though it is alive.  One
  /// lin to any surviving contact re-enters it into normal linearization.
  void attempt_rescue(sim::Context& ctx);

  // Invariant-tracker notifications, one per mutated aspect; no-ops while
  // detached.  Defined in node.cpp (the tracker is an incomplete type here).
  void notify_list();    ///< after any l_ or r_ write
  void notify_lrl();     ///< after any link-target write
  void notify_forget();  ///< after forgets_ advances

  /// The link a reslrl from `responder` should move: with one link, always
  /// link 0 (the paper's semantics — stale responses still move the token);
  /// with several, the link whose target is the responder, or null.
  LongRangeLink* link_for_response(sim::Id responder) noexcept;

  /// Shared initialization for both constructors (slot already acquired).
  void init_state(const NodeInit& init);

  // Store-backed hot-state accessors (the pre-SoA member variables).  One
  // indexed load each; the optimizer folds repeats within an action.
  sim::Id& lv() noexcept { return store_->l(slot_); }
  sim::Id lv() const noexcept { return store_->l(slot_); }
  sim::Id& rv() noexcept { return store_->r(slot_); }
  sim::Id rv() const noexcept { return store_->r(slot_); }
  sim::Id& ringv() noexcept { return store_->ring(slot_); }
  sim::Id ringv() const noexcept { return store_->ring(slot_); }
  std::span<LongRangeLink> links() noexcept { return store_->lrls(slot_); }
  std::span<const LongRangeLink> links() const noexcept {
    return store_->lrls(slot_);
  }
  /// The store's shared event counts (node.* metrics).  Const actions count
  /// too: a refused adoption is an event of is_dead().
  NodeCounts& counts() const noexcept { return store_->counts(); }

  /// Largest link target t with t ≤ bound and t > r_ (rightward shortcut),
  /// or kNegInf if none; mirror for the leftward query.
  sim::Id best_right_shortcut(sim::Id bound) const noexcept;
  sim::Id best_left_shortcut(sim::Id bound) const noexcept;
  sim::Id min_lrl() const noexcept;
  sim::Id max_lrl() const noexcept;

  const sim::Id id_;
  NodeStore* store_;       ///< hot state lives here; never null, never owned
  std::size_t slot_;       ///< this node's dense index into *store_
  InvariantTracker* tracker_ = nullptr;      ///< optional, never owned
  std::uint32_t probe_countdown_ = 0;
  // Active probe/ack failure detector (config.detector) — null unless
  // enabled, so the disabled configuration allocates nothing, arms no timer
  // and keeps the send path byte-identical to the detector-less build.
  std::unique_ptr<FailureDetector> detector_;
  bool probe_timer_armed_ = false;
  /// Last-resort contact cache (see attempt_rescue); MRU order, kPosInf =
  /// empty.  Four slots survive a 10% mass crash with probability ~1−10⁻⁴
  /// per isolated node while keeping the rescue fan-out trivially bounded.
  static constexpr std::size_t kRescueContacts = 4;
  std::array<sim::Id, kRescueContacts> rescue_{sim::kPosInf, sim::kPosInf,
                                               sim::kPosInf, sim::kPosInf};
  std::uint64_t now_ = 0;  ///< last round observed via a Context (quarantine clock)
  std::vector<sim::Id> pointer_scratch_;  ///< tick() snapshot, canonical order
  // Lookup-service completion inbox: only this node's own receive action
  // appends, and only the lookup manager's round-hook drain reads.
  bool service_enabled_ = false;
  std::vector<sim::Message> service_inbox_;
};

/// Typed downcast for hot inspection paths: a process-kind check plus a
/// static_cast, replacing the dynamic_cast the invariant predicates, views,
/// and snapshots used to pay per node per evaluation.
inline const SmallWorldNode* as_node(const sim::Process* process) noexcept {
  return process != nullptr && process->kind() == sim::kSmallWorldProcess
             ? static_cast<const SmallWorldNode*>(process)
             : nullptr;
}
inline SmallWorldNode* as_node(sim::Process* process) noexcept {
  return process != nullptr && process->kind() == sim::kSmallWorldProcess
             ? static_cast<SmallWorldNode*>(process)
             : nullptr;
}

}  // namespace sssw::core
