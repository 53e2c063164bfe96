// faults.hpp — the fault-injection adversary on the engine's send path.
//
// The paper's channel model (§II) is generous: channels are lossless,
// unbounded, and merely *unordered*; churn (§IV.G) is the only perturbation
// the analysis admits.  Self-stabilization, however, is claimed from *any*
// weakly connected state under *any* weakly fair schedule — so the engine
// lets tests and the convergence fuzzer deliberately degrade the channel:
//
//   * duplication  — a sent message is enqueued twice (at-least-once
//     delivery; perturbs the implicit exactly-once assumption),
//   * bounded extra delay — a message is held back 1..max rounds before it
//     becomes deliverable (reordering beyond what the schedulers produce;
//     bounded, so weak fairness is preserved),
//   * transient partition — during a round window, messages crossing an
//     identifier pivot are dropped (a split-brain episode; crossing drops
//     CAN destroy the only reference to a subtree, exactly like message
//     loss in experiment A4, so connectivity oracles must be conditional),
//   * stale replay — a previously seen message is re-injected to its
//     original destination (duplicate-at-a-distance: the channel "remembers"
//     old traffic, stressing the arbitrary-initial-channel-content claim).
//
// Every decision draws from the engine's deterministic RNG, in a fixed
// order, and only for dimensions that are switched on — so (seed,
// scheduler, FaultPlan) replays byte-identically, and an inactive plan
// leaves the no-fault trajectory untouched.  doc/FAULTS.md maps each
// dimension to the paper's assumptions; obs counter names live in
// doc/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/id.hpp"
#include "sim/message.hpp"
#include "util/rng.hpp"

namespace sssw::sim {

/// Declarative description of the faults to inject.  A default-constructed
/// plan is inactive: the engine bypasses the injector entirely and the
/// trajectory is bit-identical to a fault-free run.
struct FaultPlan {
  /// Each enqueued message is duplicated with this probability ([0, 1)).
  double duplicate_probability = 0.0;

  /// Each enqueued message is independently held back with this probability
  /// ([0, 1)) for uniform 1..max_delay_rounds extra rounds before entering
  /// its channel.  Requires max_delay_rounds >= 1 when > 0.
  double delay_probability = 0.0;
  std::uint32_t max_delay_rounds = 0;

  /// Transient partition: during rounds [partition_start, partition_start +
  /// partition_rounds) every message whose sender and receiver lie on
  /// opposite sides of partition_pivot is dropped.  partition_rounds == 0
  /// disables the dimension.  Messages injected without a sender (initial
  /// channel garbage) are never partition-filtered.
  std::uint64_t partition_start = 0;
  std::uint32_t partition_rounds = 0;
  Id partition_pivot = 0.5;

  /// After each send, with this probability ([0, 1)) one uniformly chosen
  /// message from a ring buffer of the last replay_history sends is
  /// re-enqueued to its original destination.  Requires replay_history >= 1
  /// when > 0.
  double replay_probability = 0.0;
  std::size_t replay_history = 0;

  bool operator==(const FaultPlan&) const = default;

  /// True when any dimension can fire.
  bool active() const noexcept {
    return duplicate_probability > 0.0 || delay_probability > 0.0 ||
           partition_rounds > 0 || replay_probability > 0.0;
  }

  /// Empty when every parameter is in range; otherwise the first one that
  /// is not, as a one-line message.  Front ends that read a plan from their
  /// user reject it with this message.
  std::string check() const;

  /// Aborts (fail-loud) on check()'s message; called by the engine at
  /// construction so a bad plan never produces a silently-wrong trajectory.
  void validate() const;
};

/// Event counts for the injected faults, kept inside EngineCounters and
/// mirrored into faults.* obs counters when metrics are attached
/// (doc/OBSERVABILITY.md).
struct FaultCounters {
  std::uint64_t duplicated = 0;         ///< extra copies enqueued
  std::uint64_t delayed = 0;            ///< copies absorbed into the hold queue
  std::uint64_t replayed = 0;           ///< stale messages re-enqueued
  std::uint64_t partition_dropped = 0;  ///< crossing messages eaten by the partition
};

/// The engine-side state machine: applies a FaultPlan to each send and owns
/// the hold queue of delayed messages.  The injector never enqueues into
/// channels or touches counters itself — it reports a SendDecision and the
/// engine routes the surviving copies, so channel and counter bookkeeping
/// stay in one place.
///
/// A fixed_delay > 0 additionally holds *every* message exactly fixed_delay
/// extra rounds (no RNG draw) — the mechanism behind the starvation-bounded
/// kAdversarialOldestLast scheduler, which delays each message to its
/// fairness deadline before the LIFO drain gets it.
class FaultInjector {
 public:
  /// One message held by the delay dimension, with the round counter value
  /// at which it becomes deliverable.
  struct Held {
    std::uint64_t due;  ///< release when engine round counter >= due
    Id to;
    Message message;
  };

  /// What the engine should do with one send, plus the fault events that
  /// fired (the engine tallies them into EngineCounters::faults).
  struct SendDecision {
    bool deliver_now = false;     ///< enqueue the original immediately
    bool duplicate_now = false;   ///< enqueue a second copy immediately
    bool duplicated = false;      ///< duplication fired (a copy may be held)
    bool partition_dropped = false;
    std::uint32_t held = 0;       ///< copies absorbed into the hold queue
    bool has_replay = false;      ///< enqueue replay_message to replay_to
    Id replay_to = kNegInf;
    Message replay_message{};
  };

  explicit FaultInjector(const FaultPlan& plan, std::uint32_t fixed_delay = 0);

  /// Filters one send.  `round` is the number of the round being executed
  /// (engine counter + 1); `from` is the acting process (kNegInf for
  /// sender-less injections, which skip the partition filter).
  SendDecision on_send(Id from, Id to, const Message& message,
                       std::uint64_t round, util::Rng& rng);

  /// Moves every held message whose due round has arrived into `out` (in
  /// hold order — deterministic).  Call at the start of each round with the
  /// engine's current round counter.
  void collect_due(std::uint64_t round_counter, std::vector<Held>& out);

  /// Messages currently in the hold queue (they count as in flight).
  std::size_t held_count() const noexcept { return held_.size(); }

  /// Visits every held message in hold order (Def. 4.2 views and snapshots
  /// treat held messages as channel contents).
  template <typename Fn>
  void for_each_held(Fn&& fn) const {
    for (const Held& held : held_) fn(held.to, held.message);
  }

  /// Fail-stop purge: removes held messages addressed to or referencing
  /// `id` and forgets replay-history entries that mention it.  Returns how
  /// many held messages were removed (they count as dropped).
  std::size_t purge_references(Id id);

 private:
  bool partition_crosses(Id from, Id to, std::uint64_t round) const noexcept;

  FaultPlan plan_;
  std::uint32_t fixed_delay_;
  std::vector<Held> held_;       // hold queue, insertion-ordered
  std::vector<Held> history_;    // replay ring buffer ((to, message) pairs; due unused)
  std::size_t history_next_ = 0; // ring-buffer write cursor
};

}  // namespace sssw::sim
